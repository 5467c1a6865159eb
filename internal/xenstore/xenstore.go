// Package xenstore implements a hierarchical, transactional key-value store
// in the style of oxenstored (paper §3.1, [13]): slash-separated paths,
// watches that fire on any change at or below a node, and optimistic
// transactions that abort when a concurrently committed write overlaps
// their read/write footprint.
//
// The store mediates the frontend/backend device handshake: the toolstack
// writes backend details under the guest's device path and the two sides
// rendezvous through watches.
package xenstore

import (
	"fmt"
	"sort"
	"strings"
)

// Store is the root of a xenstore tree. Watch callbacks fire after the
// mutation that triggered them has been applied in full, so a callback may
// re-enter the store.
type Store struct {
	values  map[string]string
	watches map[string][]*Watch
	version map[string]uint64 // per-path commit version for OCC
	commits uint64

	// Stats
	Reads, Writes, Aborts int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		values:  map[string]string{},
		watches: map[string][]*Watch{},
		version: map[string]uint64{},
	}
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
	s.Reads++
	v, ok := s.values[path]
	if !ok {
		return "", fmt.Errorf("xenstore: ENOENT %q", path)
	}
	return v, nil
}

// Write sets the value at path and fires watches on the path and all
// ancestors.
func (s *Store) Write(path, value string) error {
	path, err := normalize(path)
	if err != nil {
		return err
	}
	for _, cb := range s.write(path, value) {
		cb()
	}
	return nil
}

// write mutates and returns the watch callbacks for the caller to invoke
// once the whole mutation is done.
func (s *Store) write(path, value string) []func() {
	s.Writes++
	s.commits++
	s.values[path] = value
	s.version[path] = s.commits
	return s.fire(path)
}

// Remove deletes path and everything below it.
func (s *Store) Remove(path string) error {
	path, err := normalize(path)
	if err != nil {
		return err
	}
	found, cbs := s.remove(path)
	for _, cb := range cbs {
		cb()
	}
	if !found {
		return fmt.Errorf("xenstore: ENOENT %q", path)
	}
	return nil
}

func (s *Store) remove(path string) (bool, []func()) {
	prefix := path + "/"
	found := false
	for k := range s.values {
		if k == path || strings.HasPrefix(k, prefix) {
			delete(s.values, k)
			s.commits++
			s.version[k] = s.commits
			found = true
		}
	}
	if !found {
		return false, nil
	}
	return true, s.fire(path)
}

// List returns the immediate child names of path, sorted.
func (s *Store) List(path string) []string {
	path, err := normalize(path)
	if err != nil {
		return nil
	}
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	set := map[string]bool{}
	for k := range s.values {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		rest := k[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" {
			set[rest] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Watch observes changes at or below a path.
type Watch struct {
	store  *Store
	path   string
	events []string
	fn     func(path string)
	active bool
}

// Watch registers a watch at path; fn (optional) is called synchronously on
// each firing, and fired paths are also queued for Poll.
func (s *Store) Watch(path string, fn func(path string)) (*Watch, error) {
	path, err := normalize(path)
	if err != nil {
		return nil, err
	}
	w := &Watch{store: s, path: path, fn: fn, active: true}
	s.watches[path] = append(s.watches[path], w)
	return w, nil
}

// Poll drains queued watch events.
func (w *Watch) Poll() []string {
	ev := w.events
	w.events = nil
	return ev
}

// Unwatch deactivates the watch.
func (w *Watch) Unwatch() {
	w.active = false
	ws := w.store.watches[w.path]
	for i, x := range ws {
		if x == w {
			w.store.watches[w.path] = append(ws[:i], ws[i+1:]...)
			return
		}
	}
}

// fire queues events on watches registered at path or any of its
// ancestors and returns the synchronous callbacks for the caller to invoke
// once the mutation is complete (callbacks may re-enter the store).
func (s *Store) fire(path string) []func() {
	var cbs []func()
	node := path
	for {
		for _, w := range s.watches[node] {
			if !w.active {
				continue
			}
			w.events = append(w.events, path)
			if w.fn != nil {
				fn := w.fn
				cbs = append(cbs, func() { fn(path) })
			}
		}
		if node == "/" {
			return cbs
		}
		i := strings.LastIndexByte(node, '/')
		if i == 0 {
			node = "/"
		} else {
			node = node[:i]
		}
	}
}

// Txn is an optimistic transaction: reads and writes are buffered, and
// Commit succeeds only if no path in the transaction's footprint was
// committed by someone else since the transaction began.
type Txn struct {
	store   *Store
	start   uint64
	reads   map[string]bool
	writes  map[string]*string // nil value means delete
	aborted bool
}

// Begin starts a transaction.
func (s *Store) Begin() *Txn {
	return &Txn{store: s, start: s.commits, reads: map[string]bool{}, writes: map[string]*string{}}
}

// Read reads through the transaction (seeing its own writes).
func (t *Txn) Read(path string) (string, error) {
	path, err := normalize(path)
	if err != nil {
		return "", err
	}
	t.reads[path] = true
	if v, ok := t.writes[path]; ok {
		if v == nil {
			return "", fmt.Errorf("xenstore: ENOENT %q (deleted in txn)", path)
		}
		return *v, nil
	}
	return t.store.Read(path)
}

// Write buffers a write.
func (t *Txn) Write(path, value string) error {
	path, err := normalize(path)
	if err != nil {
		return err
	}
	t.writes[path] = &value
	return nil
}

// Remove buffers a delete.
func (t *Txn) Remove(path string) error {
	path, err := normalize(path)
	if err != nil {
		return err
	}
	t.writes[path] = nil
	return nil
}

// Commit applies the transaction, or reports a conflict. A conflicted
// transaction can simply be retried (oxenstored's behaviour).
func (t *Txn) Commit() error {
	if t.aborted {
		return fmt.Errorf("xenstore: transaction already aborted")
	}
	footprint := map[string]bool{}
	for p := range t.reads {
		footprint[p] = true
	}
	for p := range t.writes {
		footprint[p] = true
	}
	s := t.store
	for p := range footprint {
		if s.version[p] > t.start {
			t.aborted = true
			s.Aborts++
			return fmt.Errorf("xenstore: EAGAIN: %q modified concurrently", p)
		}
	}
	var cbs []func()
	for p, v := range t.writes {
		if v == nil {
			// Deleting a missing path inside a txn is a no-op.
			if _, ok := s.values[p]; ok {
				_, c := s.remove(p)
				cbs = append(cbs, c...)
			}
		} else {
			cbs = append(cbs, s.write(p, *v)...)
		}
	}
	for _, cb := range cbs {
		cb()
	}
	return nil
}
