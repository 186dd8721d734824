//go:build !race

package lifecycle_test

const raceEnabled = false
