// Package obs stands in for the registry's counter.
package obs

// Counter is a registry counter.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.v += n }
