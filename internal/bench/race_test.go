//go:build race

package bench

func init() { raceEnabled = true }
