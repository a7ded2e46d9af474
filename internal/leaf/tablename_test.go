package leaf

import (
	"errors"
	"strings"
	"testing"

	"scuba/internal/rowblock"
)

// TestUnusableTableNamesAreRefused: a table name the store, the log or a
// segment file cannot carry is refused where the table would be created, by
// AddRows and AddBatch alike, and no table is made. Each of these lost rows
// or the shm path once it was taken: an empty name came back as no table, a
// rune above U+FFFF as another name, two invalid UTF-8 names shared one
// directory, and a long name failed the shutdown's segment file. The longest
// name that fits comes back whole from a clean restart and from a crash.
func TestUnusableTableNamesAreRefused(t *testing.T) {
	e := newWALEnv(t)
	cfg := e.config(0)
	l := startLeaf(t, cfg)
	rows := []rowblock.Row{{Time: 1, Cols: map[string]rowblock.Value{"n": rowblock.Int64Value(1)}}}
	b, err := rowblock.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	// A segment file is "test-leaf0-tbl-<name>.g<gen>", gen up to 19 digits.
	longest := strings.Repeat("x", 255-len("test-leaf0-tbl-.g")-19)
	for name, why := range map[string]string{
		"":            "empty",
		"😀":           "a rune above U+FFFF",
		"a\xff":       "invalid UTF-8",
		"a\xfe":       "invalid UTF-8 encoded as a\\xff is",
		longest + "x": "a segment file name of 256 bytes",
	} {
		if err := l.AddRows(name, rows); !errors.Is(err, ErrTableName) {
			t.Errorf("AddRows(%q), %s: err = %v, want ErrTableName", name, why, err)
		}
		if _, err := l.AddBatch(name, b.AppendFrame(nil)); !errors.Is(err, ErrTableName) {
			t.Errorf("AddBatch(%q), %s: err = %v, want ErrTableName", name, why, err)
		}
	}
	if names := l.Tables(); len(names) != 0 {
		t.Fatalf("tables %q after the refusals", names)
	}

	ingest(t, l, longest, 150, 1000)
	ingest(t, l, "uniçode/名", 100, 1000)
	if _, err := l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	nu := startLeaf(t, cfg)
	if rec := nu.Recovery(); rec.Path != RecoveryMemory {
		t.Fatalf("clean restart came back by %s (%+v), want memory", rec.Path, rec.PerTablePath)
	}
	ingest(t, nu, longest, 50, 2000)
	crashed := startLeaf(t, cfg) // nu never shuts down: a crash
	if rec := crashed.Recovery(); rec.Path != RecoveryWAL {
		t.Fatalf("crash start came back by %s (%+v), want wal", rec.Path, rec.PerTablePath)
	}
	if got := countRows(t, crashed, longest); got != 200 {
		t.Errorf("the longest name holds %v rows, want 200", got)
	}
	if got := countRows(t, crashed, "uniçode/名"); got != 100 {
		t.Errorf("the BMP name holds %v rows, want 100", got)
	}
}
