//go:build race

package main

// raceEnabled: the race detector instruments allocations, so the
// allocation gates in alloc_test.go skip themselves under -race.
const raceEnabled = true
