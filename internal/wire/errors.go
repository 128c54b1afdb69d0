package wire

import "fmt"

// truncated wraps the cursor's truncation sentinel with what ran out
// and where.
func (c *Cursor) truncated(what string) error {
	return fmt.Errorf("%w: %s at offset %d", c.trunc, what, c.pos)
}

// truncatedf is truncated with a formatted description.
func (c *Cursor) truncatedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", c.trunc, fmt.Sprintf(format, args...), c.pos)
}

// corruptf wraps the cursor's corruption sentinel with a formatted
// description and the offset.
func (c *Cursor) corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", c.corrupt, fmt.Sprintf(format, args...), c.pos)
}

// Corruptf builds a corruption error at the cursor's position for
// codec-level validation (bad magic, unsupported version, implausible
// counts). Using it keeps the offset context uniform with primitive
// failures.
func (c *Cursor) Corruptf(format string, args ...any) error {
	return c.corruptf(format, args...)
}
