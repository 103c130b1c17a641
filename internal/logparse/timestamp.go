package logparse

import "time"

// parseTS parses a timestamp in tsFormat. The form loggen writes — 27
// bytes, "2006-01-02T15:04:05.000000Z" — is decoded by hand; every other
// input (numeric offsets, comma fractions, out-of-range fields, garbage)
// goes to time.Parse, so both the value and the error are always the
// ones time.Parse returns. FuzzParseTimestamp holds it to that.
func parseTS(s string) (time.Time, error) {
	if t, ok := parseTSFast(s); ok {
		return t, nil
	}
	return time.Parse(tsFormat, s)
}

// parseTSFast decodes the fixed 27-byte UTC layout, checking every field
// the way time.Parse does (month 1–12, day within the month of that
// year, hour < 24, minute and second < 60). ok is false for anything it
// does not accept, valid or not.
func parseTSFast(s string) (t time.Time, ok bool) {
	if len(s) != 27 || s[4] != '-' || s[7] != '-' || s[10] != 'T' ||
		s[13] != ':' || s[16] != ':' || s[19] != '.' || s[26] != 'Z' {
		return t, false
	}
	year, ok1 := digits(s[0:4])
	month, ok2 := digits(s[5:7])
	day, ok3 := digits(s[8:10])
	hour, ok4 := digits(s[11:13])
	minute, ok5 := digits(s[14:16])
	sec, ok6 := digits(s[17:19])
	usec, ok7 := digits(s[20:26])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) ||
		month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || sec > 59 {
		return t, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, usec*1000, time.UTC), true
}

// digits decodes an all-digit string.
func digits(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

var monthDays = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// daysIn returns the length of the month (1–12) in the Gregorian year.
func daysIn(month, year int) int {
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return monthDays[month-1]
}
