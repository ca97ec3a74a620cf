//go:build race

package deploy

func init() { raceEnabled = true }
