package benchrec

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func historyReport(ts time.Time, sha string) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Suite:         "experiments",
		Timestamp:     ts,
		GitSHA:        sha,
		GOOS:          "linux",
		GOARCH:        "amd64",
	}
}

func TestHistoryFileName(t *testing.T) {
	ts := time.Date(2026, 8, 5, 9, 30, 1, 0, time.UTC)
	r := historyReport(ts, "0123456789abcdef0123456789abcdef01234567")
	if got, want := HistoryFileName(r), "20260805T093001Z-0123456789ab.json"; got != want {
		t.Errorf("HistoryFileName = %q, want %q", got, want)
	}
	r.GitSHA = ""
	if got := HistoryFileName(r); got != "20260805T093001Z-nogit.json" {
		t.Errorf("no-git name = %q", got)
	}
}

func TestAppendHistoryIsAppendOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	ts := time.Date(2026, 8, 5, 9, 30, 1, 0, time.UTC)
	r := historyReport(ts, "aaaabbbbccccddddeeeeffff0000111122223333")

	first, err := AppendHistory(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	// Same second, same commit: must land in a new file, not overwrite.
	second, err := AppendHistory(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatalf("collision overwrote %s", first)
	}
	if !strings.HasSuffix(second, "-1.json") {
		t.Errorf("collision suffix missing: %s", second)
	}
	for _, p := range []string{first, second} {
		if _, err := Load(p); err != nil {
			t.Errorf("appended record %s does not load: %v", p, err)
		}
	}
}

func TestListHistoryAndLatestPair(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	base := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)

	if _, _, err := LatestPair(dir); err == nil {
		t.Error("LatestPair on a missing dir must fail")
	}

	var paths []string
	for i := 0; i < 3; i++ {
		p, err := AppendHistory(dir, historyReport(base.Add(time.Duration(i)*time.Hour), "feedfacefeedfacefeedfacefeedfacefeedface"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	listed, err := ListHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 3 {
		t.Fatalf("ListHistory returned %d entries, want 3", len(listed))
	}
	for i := range paths {
		if listed[i] != paths[i] {
			t.Errorf("listed[%d] = %s, want chronological %s", i, listed[i], paths[i])
		}
	}

	baseline, latest, err := LatestPair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if baseline != paths[1] || latest != paths[2] {
		t.Errorf("LatestPair = (%s, %s), want the two newest (%s, %s)", baseline, latest, paths[1], paths[2])
	}
}

func TestLatestPairNeedsTwoRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	if _, err := AppendHistory(dir, historyReport(time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC), "")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestPair(dir); err == nil || !strings.Contains(err.Error(), "need two") {
		t.Errorf("single-record LatestPair error = %v, want a need-two message", err)
	}
}

// TestCommittedHistoryParses reads every record committed under
// bench/history through Parse: a schema change that strands an old record
// (a removed field, say, which DisallowUnknownFields rejects) fails here
// rather than in a later benchdiff run.
func TestCommittedHistoryParses(t *testing.T) {
	paths, err := ListHistory(filepath.Join("..", "..", "bench", "history"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed history records found")
	}
	for _, p := range paths {
		if _, err := Load(p); err != nil {
			t.Error(err)
		}
	}
}
