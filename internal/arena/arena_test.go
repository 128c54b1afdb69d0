package arena

import "testing"

// TestGrowDoubles checks that an arena filled one element at a time at
// least doubles its capacity whenever it regrows, across the sizes where
// append alone would switch to growing by about 1.25×, and that Grow
// keeps the contents.
func TestGrowDoubles(t *testing.T) {
	var s []int
	for i := 0; i < 1<<17; i++ {
		before := cap(s)
		s = append(Grow(s, 1), i)
		if c := cap(s); c != before && c < 2*before {
			t.Fatalf("at length %d capacity grew from %d to %d", i, before, c)
		}
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("element %d reads %d", i, v)
		}
	}
	if got := Grow(s[:0:0], 1000); cap(got) < 1000 {
		t.Errorf("growing an empty slice by 1000 gave capacity %d", cap(got))
	}
}
