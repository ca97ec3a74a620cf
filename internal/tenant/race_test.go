//go:build race

package tenant

func init() { raceEnabled = true }
