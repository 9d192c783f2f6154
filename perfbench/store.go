package main

import (
	"time"

	"intervaljoin/internal/dfs"
)

// store wraps s so every file read or written records a dfs span with its
// record and byte counts; it returns s itself when untraced. The engine
// takes it as mr.Config.Store, so staging, cycle boundaries, outputs and
// the service's resident files all pass through it.
func (r *recorder) store(s dfs.Store) dfs.Store {
	if r == nil {
		return s
	}
	return &tracedStore{Store: s, rec: r}
}

// tracedStore is the dfs.Store decorator. Records pass through unchanged;
// List, Remove, Exists and Stat are the wrapped store's own.
type tracedStore struct {
	dfs.Store
	rec *recorder
}

func (s *tracedStore) Create(name string) (dfs.Writer, error) {
	sp := s.rec.openLeaf("dfs.write", name)
	start := time.Now()
	w, err := s.Store.Create(name)
	busy := time.Since(start)
	if err != nil {
		s.rec.closeLeaf(sp, busy, 0, 0)
		return nil, err
	}
	return &tracedWriter{w: w, rec: s.rec, span: sp, busy: busy}, nil
}

func (s *tracedStore) Open(name string) (dfs.Iterator, error) {
	sp := s.rec.openLeaf("dfs.read", name)
	start := time.Now()
	it, err := s.Store.Open(name)
	busy := time.Since(start)
	if err != nil {
		s.rec.closeLeaf(sp, busy, 0, 0)
		return nil, err
	}
	return &tracedIterator{it: it, rec: s.rec, span: sp, busy: busy}, nil
}

// tracedWriter counts what passes through Write; the span closes with
// Close, whose time counts as busy too.
type tracedWriter struct {
	w              dfs.Writer
	rec            *recorder
	span           int
	busy           time.Duration
	records, bytes int64
}

func (w *tracedWriter) Write(record string) error {
	start := time.Now()
	err := w.w.Write(record)
	w.busy += time.Since(start)
	if err == nil {
		w.records++
		w.bytes += int64(len(record))
	}
	return err
}

func (w *tracedWriter) Close() error {
	start := time.Now()
	err := w.w.Close()
	w.busy += time.Since(start)
	w.rec.closeLeaf(w.span, w.busy, w.records, w.bytes)
	w.span = -1
	return err
}

// tracedIterator counts what Next returns; Open and Next count as busy,
// and the span closes at Close.
type tracedIterator struct {
	it             dfs.Iterator
	rec            *recorder
	span           int
	busy           time.Duration
	records, bytes int64
}

func (it *tracedIterator) Next() (string, bool, error) {
	start := time.Now()
	rec, ok, err := it.it.Next()
	it.busy += time.Since(start)
	if ok && err == nil {
		it.records++
		it.bytes += int64(len(rec))
	}
	return rec, ok, err
}

func (it *tracedIterator) Close() error {
	err := it.it.Close()
	it.rec.closeLeaf(it.span, it.busy, it.records, it.bytes)
	it.span = -1
	return err
}
