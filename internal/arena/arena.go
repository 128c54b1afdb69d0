// Package arena holds the growth rule of the append-only arenas that the
// access trace and the happens-before builder fill one element at a
// time.
package arena

import "slices"

// Grow makes room in s for n more elements, doubling a full slice.
// Append regrows a large slice by about 1.25×, so an arena filled one
// element at a time would allocate about five times what it finally
// holds; doubling allocates two to four times.
func Grow[E any](s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), n, 256))
}
