//go:build race

package crawler

func init() { raceEnabled = true }
