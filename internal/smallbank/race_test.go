//go:build race

package smallbank

func init() { raceDetector = true }
