package main

import (
	"testing"
	"time"
)

func TestValidateServeLoad(t *testing.T) {
	for _, tc := range []struct {
		name string
		qps  int
		dur  time.Duration
		ok   bool
	}{
		{"defaults", 200, 3 * time.Second, true},
		{"one_qps", 1, time.Millisecond, true},
		{"zero_qps", 0, 3 * time.Second, false},
		{"negative_qps", -5, 3 * time.Second, false},
		{"zero_duration", 200, 0, false},
		{"negative_duration", 200, -time.Second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateServeLoad(tc.qps, tc.dur)
			if (err == nil) != tc.ok {
				t.Fatalf("validateServeLoad(%d, %v) = %v, want ok=%v", tc.qps, tc.dur, err, tc.ok)
			}
		})
	}
}
