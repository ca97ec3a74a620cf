//go:build race

package auth

func init() { raceEnabled = true }
