//go:build race

package family

func init() { raceEnabled = true }
