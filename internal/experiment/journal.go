package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Journal is the checkpoint log of the fault-tolerant run layer: every
// completed unit of pool work (one graph through every assigner × size cell
// of one table) is appended to an on-disk journal as soon as it commits, and
// a later run pointed at the same journal (dlexp -resume <dir>) replays it
// to skip the finished work.
//
// The journal is content-addressed: each record is keyed by a digest of
// everything that determines the unit's values — table title, batch content
// identity (generator config + seed + count), assigner labels, the size
// sweep and the run-time model — plus the unit's graph index. A journal
// therefore survives any reordering of figures, and a record can never be
// replayed into a run it does not match: a changed flag changes the key and
// the cell is simply recomputed.
//
// Format: one JSON object per line in <dir>/journal.jsonl,
//
//	{"k":"<sha256 hex>","g":<graph index>,"b":["<float64 bits hex>",...]}
//
// with b holding the unit's measurements flattened assigner-major over the
// size sweep. Values are stored as float64 bit patterns in hex: the
// round-trip is exact (JSON float formatting is not, and JSON has no NaN),
// which is what makes resumed tables byte-identical to uninterrupted ones.
// A truncated tail line — the expected crash artifact — is skipped on
// replay, and OpenJournal ends it with a newline so the next record starts
// a line of its own.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[journalCell][]float64
	meta string
}

type journalCell struct {
	key string
	gi  int
}

type journalLine struct {
	K string   `json:"k,omitempty"`
	G int      `json:"g,omitempty"`
	B []string `json:"b,omitempty"`
	// M is the run-identity meta line (at most one per journal, written by
	// BindMeta): a human-readable description of the configuration the
	// journal belongs to, so a resume under different flags fails loudly
	// instead of silently recomputing everything.
	M string `json:"m,omitempty"`
}

// OpenJournal opens (creating if needed) the journal in dir and replays any
// existing records into memory. The caller must Close it to flush the tail.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), done: make(map[journalCell][]float64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var line journalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			continue // torn write from a crashed run; recompute that cell
		}
		if line.M != "" {
			if j.meta == "" {
				j.meta = line.M
			}
			continue
		}
		vals, ok := decodeBits(line.B)
		if !ok {
			continue
		}
		j.done[journalCell{key: line.K, gi: line.G}] = vals
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	if err := terminateTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal tail: %w", err)
	}
	return j, nil
}

// terminateTail appends a newline to a non-empty journal whose last line
// has none: a torn write. Otherwise the next record would be glued onto
// the torn line and lost with it on the next replay.
func terminateTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// ErrJournalMismatch reports a resume against a journal written under a
// different configuration.
var ErrJournalMismatch = errors.New("journal configuration mismatch")

// BindMeta binds the journal to a run identity. On a fresh (or legacy,
// pre-meta) journal it appends the identity as a meta line; on a journal
// that already carries one it verifies the identities match and returns an
// ErrJournalMismatch naming both otherwise. Callers bind before the run
// starts, so a journal recorded under different flags fails fast instead
// of silently keying every lookup into a miss and recomputing the sweep.
func (j *Journal) BindMeta(meta string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.meta != "" {
		if j.meta != meta {
			return fmt.Errorf("%w: journal was recorded with [%s], current run is [%s]",
				ErrJournalMismatch, j.meta, meta)
		}
		return nil
	}
	buf, err := json.Marshal(journalLine{M: meta})
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("journal meta append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal meta flush: %w", err)
	}
	j.meta = meta
	return nil
}

// lookup returns the journaled values for one unit, if present with the
// expected length (a length mismatch means the key collided across
// incompatible configurations, which the digest makes cryptographically
// unlikely — treat it as a miss).
func (j *Journal) lookup(key string, gi, n int) ([]float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	vals, ok := j.done[journalCell{key: key, gi: gi}]
	if !ok || len(vals) != n {
		return nil, false
	}
	return vals, true
}

// commit appends one completed unit and flushes it to the OS, so the record
// survives anything short of a machine crash.
func (j *Journal) commit(key string, gi int, vals []float64) error {
	bits := make([]string, len(vals))
	for i, v := range vals {
		bits[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	buf, err := json.Marshal(journalLine{K: key, G: gi, B: bits})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal flush: %w", err)
	}
	j.done[journalCell{key: key, gi: gi}] = append([]float64(nil), vals...)
	return nil
}

// Len reports the number of journaled units.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

func decodeBits(b []string) ([]float64, bool) {
	vals := make([]float64, len(b))
	for i, s := range b {
		bits, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, false
		}
		vals[i] = math.Float64frombits(bits)
	}
	return vals, true
}

// journalKey digests everything that determines one table's values: the
// title, the batch content identity, the run-time model, the size sweep and
// the assigner labels. Custom generators have no content identity; their
// batches are keyed by seed and count alone (sound because the title names
// the generating application in every dlexp figure).
func (cfg Config) journalKey(title string, assigners []Assigner) string {
	h := sha256.New()
	fmt.Fprintf(h, "title=%s|seed=%d|graphs=%d|preemptive=%t|network=%t|",
		title, cfg.Seed, cfg.Graphs, cfg.Scheduler.Preemptive, cfg.Network != nil)
	if cfg.Custom == nil {
		fmt.Fprintf(h, "batch=%#v|", cfg.batchID())
	} else {
		fmt.Fprintf(h, "batch=custom|")
	}
	fmt.Fprintf(h, "sizes=%v|", cfg.Sizes)
	for _, a := range assigners {
		fmt.Fprintf(h, "label=%s|", a.Label())
	}
	return hex.EncodeToString(h.Sum(nil))
}
