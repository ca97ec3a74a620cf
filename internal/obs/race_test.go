//go:build race

package obs

func init() { raceEnabled = true }
