//go:build race

package httpd

func init() { raceEnabled = true }
