package main

import (
	"sort"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

// add appends a duration in the given unit (time.Millisecond → ms).
func (s *sample) add(d, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// sorted returns an ascending copy.
func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile by linear interpolation between the
// two nearest ranks; 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[lo+1]*frac
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) max() float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

func (s sample) min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s {
		if v < m {
			m = v
		}
	}
	return m
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// durSample converts durations to a sample in the given unit.
func durSample(ds []time.Duration, unit time.Duration) sample {
	out := make(sample, 0, len(ds))
	for _, d := range ds {
		out.add(d, unit)
	}
	return out
}

// p95Supported reports whether at least ten samples lie beyond the 95th
// percentile — the rule under which a p95 is printed at all.
func (s sample) p95Supported() bool { return len(s) >= 200 }
