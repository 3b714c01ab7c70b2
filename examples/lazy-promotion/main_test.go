package main

import "testing"

func TestUnpromotedShare(t *testing.T) {
	for _, c := range []struct {
		unpromoted, writes uint64
		want               string
	}{
		{8542, 46498, "8542 of 46498 write ops (18.4%) wrote a key that was never promoted to the indexed store"},
		{3, 4, "3 of 4 write ops (75.0%) wrote a key that was never promoted to the indexed store"},
	} {
		if got := unpromotedShare(c.unpromoted, c.writes); got != c.want {
			t.Errorf("unpromotedShare(%d, %d) = %q, want %q", c.unpromoted, c.writes, got, c.want)
		}
	}
}
