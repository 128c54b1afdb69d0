//go:build unix

package ingest

import "testing"

// TestOpenStoreRefusesHeldDirectory opens a store twice on one
// directory: the second is refused until the first is closed, since two
// stores would append over each other's records.
func TestOpenStoreRefusesHeldDirectory(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if second, err := OpenStore(dir); err == nil {
		second.Close()
		t.Fatal("opened a second store on a directory another store holds")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	st.Close()
}
