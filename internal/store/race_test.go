//go:build race

package store

func init() { raceEnabled = true }
