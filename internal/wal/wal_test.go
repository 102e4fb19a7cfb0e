package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testFormat = Format{
	Name:       "wal: test log",
	VersionKey: "test_version",
	Version:    1,
	Config:     `cfg <&> "quoted" é`,
	Mismatch: func(path, got string) error {
		return errors.New("wal: test log " + path + ": other configuration " + got)
	},
}

// openRecords opens path and returns the records it folded: each one a
// JSON object (anything else is refused as corrupt).
func openRecords(path string) (*Log, []json.RawMessage, error) {
	var recs []json.RawMessage
	l, err := Open(path, testFormat, func(rec json.RawMessage) error {
		if len(rec) == 0 || rec[0] != '{' {
			return ErrCorrupt
		}
		recs = append(recs, rec)
		return nil
	})
	return l, recs, err
}

func header(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hdr.log")
	l, _, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHeaderMatchesStructEncoding pins the header bytes to what a
// json.Marshal of a tagged header struct produces, HTML escaping
// included, so logs written before this package keep loading and new
// ones stay byte-identical.
func TestHeaderMatchesStructEncoding(t *testing.T) {
	want, err := json.Marshal(struct {
		Version int    `json:"test_version"`
		Config  string `json:"config"`
	}{1, testFormat.Config})
	if err != nil {
		t.Fatal(err)
	}
	if got := header(t); string(got) != string(want)+"\n" {
		t.Fatalf("header = %q, want %q", got, want)
	}
}

func TestHeaderChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	for _, c := range []struct{ body, want string }{
		{`{"test_version":2,"config":"x"}` + "\n", "version 2, want 1"},
		{`{"test_version":1,"config":"x"}` + "\n", "other configuration x"},
		{`{"test_version":"1"}` + "\n", "corrupt header line"},
		{`{"test_version":1`, "corrupt header line"},
	} {
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openRecords(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want %q", c.body, err, c.want)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, _, err := openRecords(filepath.Join(t.TempDir(), "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(map[string]int{"a": 1}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after close: %v", err)
	}
	if l.Err() != nil {
		t.Fatalf("closed append made the error sticky: %v", l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// FuzzWALLoad feeds arbitrary bytes after a valid header. Open must
// either refuse the file with a clean error and leave it untouched, or
// fold exactly the intact lines and truncate the file to them; an
// append after a successful open must reopen with one more record.
func FuzzWALLoad(f *testing.F) {
	for _, seed := range []string{
		"",
		// Checkpoint shapes: a torn final record, a corrupt interior one.
		`{"key":"fig3|N=5|EAGER","cell":{}}` + "\n" + `{"key":"fig3|N=6|EA`,
		"{\"key\":\"broken\n{\"key\":\"x\",\"cell\":{}}\n",
		// Journal shapes: a torn complete, a garbage interior line.
		`{"op":"accept","id":"rjob-000001","key":"k"}` + "\n" + `{"op":"complete","id":"rjob-000001","state":"do`,
		`{"op":"accept","id":"rjob-000001","key":"k"}` + "\n{garbage\n" + `{"op":"accept","id":"rjob-000002","key":"k"}` + "\n",
		// Line-ending and value-shape edges.
		"{\"a\":1}\r\n{\"b\":2}\r\n",
		"\n",
		"[1]\n",
		"{} {}\n",
	} {
		f.Add([]byte(seed))
	}
	hdr := header(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append(append([]byte{}, hdr...), tail...)
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := openRecords(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), testFormat.Name+" ") {
				t.Fatalf("unclean error %q", err)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("a refused log was modified")
			}
			return
		}
		keep := bytes.LastIndexByte(data, '\n') + 1
		if !bytes.Equal(after, data[:keep]) {
			t.Fatalf("file after open = %q, want the intact prefix %q", after, data[:keep])
		}
		lines := bytes.Split(data[len(hdr):keep], []byte("\n"))
		lines = lines[:len(lines)-1] // the split's empty remainder after the last newline
		if len(recs) != len(lines) {
			t.Fatalf("folded %d records from %d intact lines", len(recs), len(lines))
		}
		for i, line := range lines {
			if !bytes.Equal(recs[i], bytes.Trim(line, " \t\r\n")) {
				t.Fatalf("record %d = %q, line %q", i, recs[i], line)
			}
		}

		if err := l.Append(map[string]string{"k": "appended"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, recs2, err := openRecords(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer l2.Close()
		if len(recs2) != len(recs)+1 || string(recs2[len(recs)]) != `{"k":"appended"}` {
			t.Fatalf("reopen folded %d records (want %d), last %q", len(recs2), len(recs)+1, recs2[len(recs2)-1])
		}
	})
}
