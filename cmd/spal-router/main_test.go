package main

import "testing"

func TestFormatRate(t *testing.T) {
	for _, tc := range []struct {
		perSecond float64
		want      string
	}{
		{2193, "2.19 kpps"},
		{7.3e6, "7.30 Mpps"},
		{0, "0 pps"},
		{999, "999 pps"},
		{1e6, "1.00 Mpps"},
	} {
		if got := formatRate(tc.perSecond); got != tc.want {
			t.Errorf("formatRate(%v) = %q, want %q", tc.perSecond, got, tc.want)
		}
	}
}
