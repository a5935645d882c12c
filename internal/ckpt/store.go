// Package ckpt is the fleet-held half of the crash-recovery layer: a
// store for per-stream checkpoints cut at board round barriers (plus a
// mirror of committed adapter model versions, so a restore can warm-
// start from a stream's adapted champion), and a deterministic
// virtual-time failure detector that declares boards dead from missed
// barrier heartbeats — no wall-clock anywhere, so fixed-seed fleet runs
// stay byte-identical.
//
// Everything in the package is driven single-threaded from the fleet
// dispatcher's barrier loop; nothing is safe for concurrent use.
package ckpt

import (
	"encoding/gob"
	"io"
	"sort"

	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
)

// Entry is one stored checkpoint with its provenance: the board that
// cut it and the fleet barrier it was cut at (the replay bound is
// judged against this barrier).
type Entry struct {
	Board   string
	Barrier int
	Ck      serve.Checkpoint
}

// Store holds the fleet's newest checkpoint per stream. The store
// lives fleet-side, so it survives any board's fail-stop; a crashed
// board's streams are restored from exactly what is here.
type Store struct {
	entries map[int]Entry
	models  map[string]*sched.Models
}

// NewStore returns an empty checkpoint store.
func NewStore() *Store {
	return &Store{
		entries: map[int]Entry{},
		models:  map[string]*sched.Models{},
	}
}

// Put records the newest checkpoint for its stream, replacing any
// older one.
func (s *Store) Put(board string, barrier int, ck serve.Checkpoint) {
	s.entries[ck.ID] = Entry{Board: board, Barrier: barrier, Ck: ck}
}

// Has reports whether the stream has a stored checkpoint.
func (s *Store) Has(id int) bool {
	_, ok := s.entries[id]
	return ok
}

// Get returns the stream's stored checkpoint entry.
func (s *Store) Get(id int) (Entry, bool) {
	e, ok := s.entries[id]
	return e, ok
}

// Drop discards the stream's checkpoint — called when the stream
// finishes (nothing left to recover) or after a successful restore
// re-homes it (the next capture pass re-checkpoints it under its new
// board).
func (s *Store) Drop(id int) { delete(s.entries, id) }

// Len returns the number of streams with a stored checkpoint.
func (s *Store) Len() int { return len(s.entries) }

// Board returns the checkpoints cut by the named board, in stream-id
// order — the deterministic restore order after that board dies.
func (s *Store) Board(board string) []Entry {
	var out []Entry
	for _, e := range s.entries {
		if e.Board == board {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ck.ID < out[j].Ck.ID })
	return out
}

// Rehome re-attributes a stored checkpoint to a new board without
// refreshing its content — used when a stream migrates or restores
// between capture sweeps, so a subsequent death of the *new* board
// still recovers it.
func (s *Store) Rehome(id int, board string) {
	if e, ok := s.entries[id]; ok {
		e.Board = board
		s.entries[id] = e
	}
}

// MirrorModel records a committed adapter model version. The Models
// pointer is the registry's frozen snapshot, shared not copied; a
// restore clones it per stream exactly as Submit clones base models,
// sharing its read-only parameters and copying only its refit state.
func (s *Store) MirrorModel(label string, m *sched.Models) {
	if m != nil {
		s.models[label] = m
	}
}

// Model resolves a mirrored model version, or nil when the label was
// never committed (including "" and the pre-promotion "v0", which name
// the base models).
func (s *Store) Model(label string) *sched.Models { return s.models[label] }

// Save gob-encodes the checkpoint entries — the store's durability
// format, proving every checkpoint is serializable plain data. The
// model mirror is process-local (the adapt registry owns gob
// persistence of model snapshots) and is not written.
func (s *Store) Save(w io.Writer) error {
	ids := make([]int, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Entry, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.entries[id])
	}
	return gob.NewEncoder(w).Encode(out)
}

// Load replaces the store's entries with a gob stream written by Save.
func (s *Store) Load(r io.Reader) error {
	var in []Entry
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return err
	}
	s.entries = make(map[int]Entry, len(in))
	for _, e := range in {
		s.entries[e.Ck.ID] = e
	}
	return nil
}
