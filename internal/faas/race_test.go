//go:build race

package faas

func init() { raceEnabled = true }
