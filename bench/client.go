package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// newClient returns an HTTP client that keeps its connections alive, so
// a closed-loop worker reuses one connection for its whole run.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 32, IdleConnTimeout: time.Minute},
	}
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Status    string `json:"status"`
	Records   int    `json:"records"`
	Watermark uint64 `json:"watermark"`
}

func getHealth(c *http.Client, base string) (health, error) {
	var h health
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// statusError is an answer other than 200.
type statusError struct {
	what string
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: status %d %s", e.what, e.code, e.msg)
}

// isShed reports whether a request failed because the server shed it.
func isShed(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusTooManyRequests
}

// ack is the /v1/ingest response.
type ack struct {
	Accepted    int    `json:"accepted"`
	Quarantined int    `json:"quarantined"`
	Watermark   uint64 `json:"watermark"`
}

// postIngest sends one pre-encoded request body and returns the ack. Any
// status but 200 is an error.
func postIngest(c *http.Client, base string, body []byte) (ack, error) {
	var a ack
	resp, err := c.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return a, &statusError{"ingest", resp.StatusCode, string(bytes.TrimSpace(msg))}
	}
	return a, json.NewDecoder(resp.Body).Decode(&a)
}

// getDiagnose fetches /v1/diagnose with the given raw query and returns
// the body and the watermark header. Any status but 200 is an error.
func getDiagnose(c *http.Client, base, query string) ([]byte, uint64, error) {
	u := base + "/v1/diagnose"
	if query != "" {
		u += "?" + query
	}
	resp, err := c.Get(u)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, &statusError{"diagnose?" + query, resp.StatusCode, ""}
	}
	wm, err := strconv.ParseUint(resp.Header.Get("X-Hpcfail-Watermark"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("diagnose?%s: watermark header: %w", query, err)
	}
	return body, wm, nil
}

// scrapeMetrics reads /metrics into a name → value map. Series with
// labels keep them in the key, exactly as exposed.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// frame is one alarm or failure event received on the SSE stream.
type frame struct {
	kind string
	key  eventKey
	at   time.Time
}

// subscriber reads /v1/alarms on its own connection until closed.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	frames []frame
}

// subscribe opens the alarm stream and returns once the server has sent
// its connected preamble, so no event published afterwards is missed.
func subscribe(base string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/alarms", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("alarms: status %d", resp.StatusCode)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("alarms: no preamble: %w", err)
		}
		if strings.HasPrefix(line, ": connected") {
			break
		}
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		kind := ""
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = line[len("event: "):]
			case strings.HasPrefix(line, "data: ") && (kind == "alarm" || kind == "failure"):
				at := time.Now()
				var ev struct {
					Time time.Time `json:"time"`
					Node string    `json:"node"`
				}
				if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil {
					s.mu.Lock()
					s.frames = append(s.frames, frame{kind, eventKey{ev.Node, ev.Time.UnixNano()}, at})
					s.mu.Unlock()
				}
			}
		}
	}()
	return s, nil
}

// closeAfter waits until want frames have arrived (at most patience),
// then ends the stream, waits for the reader to exit and returns
// everything it received.
func (s *subscriber) closeAfter(want int, patience time.Duration) []frame {
	for deadline := time.Now().Add(patience); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.frames)
		s.mu.Unlock()
		if n >= want {
			break
		}
	}
	s.cancel()
	<-s.done
	return s.frames
}
