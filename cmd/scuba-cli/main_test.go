package main

import (
	"testing"

	"scuba"
)

// A filter literal fills the operand of every column type it parses as: an
// integer both Int and Float, a non-integer Float alone, and any literal Str.
func TestParseFilterFloat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want scuba.Filter
	}{
		{"latency_ms>2.5", scuba.Filter{Column: "latency_ms", Op: scuba.OpGt, Float: 2.5, Str: "2.5"}},
		{"cpu<=-0.25", scuba.Filter{Column: "cpu", Op: scuba.OpLe, Float: -0.25, Str: "-0.25"}},
		{"status=500", scuba.Filter{Column: "status", Op: scuba.OpEq, Int: 500, Float: 500, Str: "500"}},
		{"service!=web", scuba.Filter{Column: "service", Op: scuba.OpNe, Str: "web"}},
	} {
		got, err := parseFilter(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
