//go:build race

package sdk

func init() { raceEnabled = true }
