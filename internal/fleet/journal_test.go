package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memsched/internal/serve"
)

func testReq(n int) serve.JobRequest {
	req := serve.JobRequest{Workload: "matmul2d", N: n}
	req.Normalize()
	return req
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.UnixMilli(1000)
	res := json.RawMessage(`{"makespan_ms":42}`)
	for i, id := range []string{"rjob-000001", "rjob-000002", "rjob-000003"} {
		req := testReq(4 + i)
		if err := j.Accept(id, CanonicalKey(req), uint64(i+1), req, t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Complete("rjob-000001", serve.JobDone, res, "", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 4 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	complete, incomplete := j2.Recovered()
	if len(complete) != 1 || len(incomplete) != 2 {
		t.Fatalf("recovered %d complete, %d incomplete", len(complete), len(incomplete))
	}
	c := complete[0]
	if c.ID != "rjob-000001" || c.State != serve.JobDone || string(c.Result) != string(res) {
		t.Fatalf("complete = %+v", c)
	}
	if c.FinishedMS != t0.Add(time.Second).UnixMilli() {
		t.Fatalf("finished_ms = %d", c.FinishedMS)
	}
	if incomplete[0].ID != "rjob-000002" {
		t.Fatalf("incomplete[0] = %+v", incomplete[0])
	}
	if incomplete[1].ID != "rjob-000003" {
		t.Fatalf("incomplete[1] = %+v", incomplete[1])
	}
	if got := incomplete[0].Req; got.N != 5 || got.Workload != "matmul2d" || got.Strategy != "DARTS+LUF" {
		t.Fatalf("recovered request = %+v", got)
	}
	// Appending after recovery must work (journal reopened mid-life).
	req := testReq(99)
	if err := j2.Accept("rjob-000004", CanonicalKey(req), 9, req, t0); err != nil {
		t.Fatal(err)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testReq(4)
	if err := j.Accept("rjob-000001", CanonicalKey(req), 1, req, time.UnixMilli(5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	intact := st.Size()

	// Simulate a crash mid-append: a torn, unterminated complete record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"complete","id":"rjob-000001","state":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	complete, incomplete := j2.Recovered()
	if len(complete) != 0 || len(incomplete) != 1 {
		t.Fatalf("recovered %d complete, %d incomplete (torn complete must be dropped)", len(complete), len(incomplete))
	}
	// The torn bytes must have been truncated so appends stay aligned.
	if st, _ := os.Stat(path); st.Size() != intact {
		t.Fatalf("size after recovery = %d, want %d", st.Size(), intact)
	}
	if err := j2.Complete("rjob-000001", serve.JobFailed, nil, "boom", time.UnixMilli(9)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	complete, incomplete = j3.Recovered()
	if len(complete) != 1 || len(incomplete) != 0 || complete[0].Error != "boom" {
		t.Fatalf("after re-complete: %d complete %d incomplete", len(complete), len(incomplete))
	}
}

func TestJournalCorruptInteriorRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testReq(4)
	if err := j.Accept("rjob-000001", CanonicalKey(req), 1, req, time.UnixMilli(5)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A terminated garbage line in the middle is corruption, not a torn
	// tail — recovery must refuse rather than silently drop jobs.
	corrupted := append([]byte{}, data...)
	corrupted = append(corrupted, []byte("{garbage\n")...)
	corrupted = append(corrupted, data[strings.Index(string(data), "\n")+1:]...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt interior accepted: %v", err)
	}
}

func TestJournalHeaderMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	if err := os.WriteFile(path, []byte(`{"journal_version":99,"config":"v1|keyv1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"journal_version":1,"config":"v0|other"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("config mismatch accepted: %v", err)
	}
}

func TestJournalDedupe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testReq(4)
	key := CanonicalKey(req)
	for i := 0; i < 3; i++ {
		if err := j.Accept("rjob-000001", key, 1, req, time.UnixMilli(5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := j.Complete("rjob-000001", serve.JobDone, json.RawMessage(`{}`), "", time.UnixMilli(6)); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Records != 2 {
		t.Fatalf("dedupe failed: %d records appended, want 2", st.Records)
	}
	// Same ID under a different key is corruption, loudly.
	other := testReq(5)
	if err := j.Accept("rjob-000001", CanonicalKey(other), 1, other, time.UnixMilli(7)); err == nil {
		t.Fatal("conflicting re-accept silently succeeded")
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	complete, incomplete := j2.Recovered()
	if len(complete) != 1 || len(incomplete) != 0 {
		t.Fatalf("recovered %d complete, %d incomplete", len(complete), len(incomplete))
	}
}

func TestJournalTransitionConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Complete("rjob-000042", serve.JobDone, nil, "", time.UnixMilli(5)); err == nil {
		t.Fatal("complete of unjournaled job accepted")
	}
	req := testReq(4)
	if err := j.Accept("rjob-000001", CanonicalKey(req), 1, req, time.UnixMilli(5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("rjob-000001", serve.JobRunning, nil, "", time.UnixMilli(6)); err == nil {
		t.Fatal("non-terminal complete accepted")
	}
}

// TestJournalLegacyDispatchRecords loads a journal written while the
// router still journaled an informational dispatch record per replica
// accept: such lines are ignored, and one naming an unaccepted job is
// still corruption.
func TestJournalLegacyDispatchRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testReq(4)
	for _, id := range []string{"rjob-000001", "rjob-000002"} {
		if err := j.Accept(id, CanonicalKey(req), 1, req, time.UnixMilli(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := string(data) +
		`{"op":"dispatch","id":"rjob-000001","replica":"http://a"}` + "\n" +
		`{"op":"complete","id":"rjob-000001","state":"done","result":"{}","finished_unix_ms":6}` + "\n" +
		`{"op":"dispatch","id":"rjob-000002","replica":"http://b"}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("legacy journal refused: %v", err)
	}
	complete, incomplete := j2.Recovered()
	if len(complete) != 1 || complete[0].ID != "rjob-000001" || len(incomplete) != 1 || incomplete[0].ID != "rjob-000002" {
		t.Fatalf("recovered %+v complete, %+v incomplete", complete, incomplete)
	}
	j2.Close()

	orphan := legacy + `{"op":"dispatch","id":"rjob-000009","replica":"http://a"}` + "\n"
	if err := os.WriteFile(path, []byte(orphan), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), "dispatch of unjournaled job") {
		t.Fatalf("dispatch of an unaccepted job accepted: %v", err)
	}
}
