package main

import (
	"cmp"
	"slices"
)

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// above it, with that percentile. With ten or fewer samples no percentile
// qualifies; the maximum is returned with percentile 100 and ok false.
func tail(xs []float64) (value, percentile float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100, false
	}
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// ratio is a/b, or 0 when b is 0 (a layer idle on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
