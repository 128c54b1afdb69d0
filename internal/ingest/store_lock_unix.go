//go:build unix

package ingest

import (
	"os"
	"syscall"
)

// lockPack takes an exclusive advisory lock on the open pack, so a
// second store on the same directory, in this process or another, is
// refused instead of writing over the first one's records. The lock
// is released when the pack is closed or the process exits.
func lockPack(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
