package main

import "testing"

func TestWriteRatio(t *testing.T) {
	for _, c := range []struct {
		hyb, base uint64
		want      string
	}{
		{163, 83, "hybrid writes 1.96× the LSM's physical bytes"},
		{50, 100, "hybrid writes 0.50× the LSM's physical bytes"},
	} {
		if got := writeRatio(c.hyb, c.base); got != c.want {
			t.Errorf("writeRatio(%d, %d) = %q, want %q", c.hyb, c.base, got, c.want)
		}
	}
}
