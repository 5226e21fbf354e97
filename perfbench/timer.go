package main

import (
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// kernelTimer sleeps on a Linux timerfd that the Go netpoller watches.
// The runtime's own timers wake with millisecond granularity, which
// would make the open-loop generator up to a millisecond late on every
// op. A timerfd wakes within microseconds, and the goroutine waiting on
// it holds no P, so a goroutine started just before the wait runs at
// once rather than behind a thread that sleeps in a system call.
type kernelTimer struct {
	fd uintptr
	f  *os.File
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

func newKernelTimer() (*kernelTimer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// netpoller.
	return &kernelTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns once t has passed.
func (k *kernelTimer) sleepUntil(t time.Time) error {
	var buf [8]byte // the expiration count
	for d := time.Until(t); d > 0; d = time.Until(t) {
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return os.NewSyscallError("timerfd_settime", errno)
		}
		if _, err := io.ReadFull(k.f, buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func (k *kernelTimer) close() { k.f.Close() }
