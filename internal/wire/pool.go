package wire

import "sync"

// maxPooledCap bounds the capacity of a buffer returned to the pool. A
// one-off giant payload (a checkpoint memory image, say) must not pin
// megabytes inside the pool forever; oversized buffers are dropped and
// the pool refills with modest ones.
const maxPooledCap = 1 << 20

var appenderPool = sync.Pool{New: func() any { return new(Appender) }}

// GetAppender returns an empty pooled Appender. The streaming flush
// path frames each segment in one, so a long recording reuses one warm
// buffer per segment instead of allocating each time. Return it with
// PutAppender once its bytes have been written or copied out.
func GetAppender() *Appender {
	a := appenderPool.Get().(*Appender)
	a.Reset()
	return a
}

// PutAppender returns a to the pool. The caller must not touch a.Buf
// afterwards.
func PutAppender(a *Appender) {
	if cap(a.Buf) > maxPooledCap {
		return
	}
	appenderPool.Put(a)
}
