// Package wal is the append-only JSONL write-ahead log under the sweep
// checkpoint (internal/expr) and the router's job journal
// (internal/fleet). A log is one file: a header line carrying a format
// version and the writer's configuration fingerprint, then one JSON
// record per line, each fsync'd before its append returns.
//
// The file survives SIGKILL mid-write: at most the final line is torn,
// and Open drops a torn (unterminated) final line and truncates it away
// so appends start on a line boundary. A newline-terminated line that
// does not parse anywhere else is real corruption and is refused.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// maxLine caps one record line (a checkpoint cell carries a whole
// telemetry block; a journal complete carries the verbatim result).
const maxLine = 1 << 26

// ErrCorrupt is returned by a fold to refuse a record that parsed but
// is incomplete; Open reports it as a corrupt record on that line.
var ErrCorrupt = errors.New("wal: corrupt record")

// Format names a log format: its error prefix, its header's version key
// and version, and the configuration fingerprint a reopen must match.
type Format struct {
	// Name prefixes every error, e.g. "fleet: journal".
	Name string
	// VersionKey is the header's version field, e.g. "journal_version".
	VersionKey string
	Version    int
	Config     string
	// Mismatch builds the refusal of a log whose header carries another
	// configuration (got) than Config.
	Mismatch func(path, got string) error
}

// Log is an open write-ahead log. It is safe for concurrent use; callers
// that keep state derived from the records serialize Append with that
// state under their own lock.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	name     string
	firstErr error
}

// Open opens or creates the log at path. A new file gets the header;
// an existing one has its header checked against fm and every intact
// record decoded into an R and passed to fold, in file order. A fold
// error refuses the log, reported with its line number (the header is
// line 1); ErrCorrupt reads as a corrupt record on that line. The
// header of a new log is durable before Open returns.
func Open[R any](path string, fm Format, fold func(rec R) error) (*Log, error) {
	// O_APPEND: once the torn tail is truncated away, every write lands
	// at the end of the last intact line.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fm.Name, err)
	}
	l := &Log{f: f, path: path, name: fm.Name}
	keep, err := load(l, fm, fold)
	if err == nil {
		// Drop the torn tail (if any) so appends start on a line boundary.
		if err = f.Truncate(keep); err == nil {
			err = f.Sync()
		}
		if err != nil {
			err = l.wrap(err)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// load writes the header into an empty file or checks an existing one
// and folds its records. It returns the byte offset of the end of the
// last intact line.
func load[R any](l *Log, fm Format, fold func(R) error) (keep int64, err error) {
	st, err := l.f.Stat()
	if err != nil {
		return 0, l.wrap(err)
	}
	if st.Size() == 0 {
		cfg, _ := json.Marshal(fm.Config) // a string always marshals
		hdr := fmt.Appendf(nil, "{\"%s\":%d,\"config\":%s}\n", fm.VersionKey, fm.Version, cfg)
		if _, err := l.f.Write(hdr); err != nil {
			return 0, l.wrap(err)
		}
		return int64(len(hdr)), nil
	}

	sc := bufio.NewScanner(l.f)
	sc.Buffer(make([]byte, 0, 1<<20), maxLine)
	sc.Split(scanLF)
	var off int64
	lineNo := 0
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // +1 for the newline the split strips
		whole := off+lineLen <= st.Size()
		lineNo++
		if lineNo == 1 {
			if !whole {
				return 0, fmt.Errorf("%s %s: corrupt header line", l.name, l.path)
			}
			if err := checkHeader(l, fm, line); err != nil {
				return 0, err
			}
			off += lineLen
			continue
		}
		if !whole {
			// Unterminated final line: the crash landed mid-write. Drop it
			// even if its prefix happens to parse — appending after an
			// unterminated line would corrupt the log — and let the
			// writer re-derive the record.
			return off, nil
		}
		var rec R
		err := json.Unmarshal(line, &rec)
		if err == nil {
			err = fold(rec)
		} else {
			err = ErrCorrupt
		}
		if errors.Is(err, ErrCorrupt) {
			return 0, fmt.Errorf("%s %s: corrupt record on line %d", l.name, l.path, lineNo)
		}
		if err != nil {
			return 0, fmt.Errorf("%s %s: line %d: %w", l.name, l.path, lineNo, err)
		}
		off += lineLen
	}
	if err := sc.Err(); err != nil {
		return 0, l.wrap(err)
	}
	return off, nil
}

// checkHeader verifies the header line's version and configuration.
func checkHeader(l *Log, fm Format, line []byte) error {
	var hdr map[string]json.RawMessage
	var version int
	var config string
	err := json.Unmarshal(line, &hdr)
	if v, ok := hdr[fm.VersionKey]; ok && err == nil {
		err = json.Unmarshal(v, &version)
	}
	if c, ok := hdr["config"]; ok && err == nil {
		err = json.Unmarshal(c, &config)
	}
	switch {
	case err != nil:
		return fmt.Errorf("%s %s: corrupt header line", l.name, l.path)
	case version != fm.Version:
		return fmt.Errorf("%s %s: version %d, want %d", l.name, l.path, version, fm.Version)
	case config != fm.Config:
		return fm.Mismatch(l.path, config)
	}
	return nil
}

// scanLF splits on '\n' only. bufio.ScanLines would also strip a '\r'
// before it, and the byte offsets Open truncates at would then drift
// from the file.
func scanLF(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Append writes rec as one JSON line and fsyncs it before returning, so
// a SIGKILL immediately after never loses it. A marshal, write or sync
// failure is sticky (see Err) and returned; appending to a closed log fails
// without touching the sticky error.
func (l *Log) Append(rec any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("%s %s: closed", l.name, l.path)
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = l.f.Write(append(line, '\n'))
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		err = l.wrap(err)
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	return err
}

func (l *Log) wrap(err error) error { return fmt.Errorf("%s %s: %w", l.name, l.path, err) }

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Err returns the first append failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// Close syncs and closes the log file; closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
