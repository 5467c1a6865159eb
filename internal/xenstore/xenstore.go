// Package xenstore implements the hierarchical key-value store of
// oxenstored (paper §3.1, [13]): slash-separated absolute paths, each
// holding one value.
//
// The store mediates the frontend/backend device handshake: the toolstack
// writes backend details under the guest's device path, and each side reads
// what the other wrote.
package xenstore

import (
	"fmt"
	"strings"
)

// Store is the root of a xenstore tree.
type Store struct {
	values map[string]string
}

// New returns an empty store.
func New() *Store {
	return &Store{values: map[string]string{}}
}

func normalize(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("xenstore: path %q must be absolute", path)
	}
	if path != "/" && strings.HasSuffix(path, "/") {
		path = strings.TrimRight(path, "/")
	}
	if strings.Contains(path, "//") {
		return "", fmt.Errorf("xenstore: empty component in %q", path)
	}
	return path, nil
}

// Read returns the value at path.
func (s *Store) Read(path string) (string, error) {
	path, err := normalize(path)
	if err != nil {
		return "", err
	}
	v, ok := s.values[path]
	if !ok {
		return "", fmt.Errorf("xenstore: ENOENT %q", path)
	}
	return v, nil
}

// Write sets the value at path.
func (s *Store) Write(path, value string) error {
	path, err := normalize(path)
	if err != nil {
		return err
	}
	s.values[path] = value
	return nil
}
