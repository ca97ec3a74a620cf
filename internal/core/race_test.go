//go:build race

package core

func init() { raceEnabled = true }
