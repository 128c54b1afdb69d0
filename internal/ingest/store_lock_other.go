//go:build !unix

package ingest

import "os"

// lockPack does nothing where flock(2) does not exist: there, one
// process must open a store directory at a time.
func lockPack(*os.File) error { return nil }
