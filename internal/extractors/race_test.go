//go:build race

package extractors

func init() { raceEnabled = true }
