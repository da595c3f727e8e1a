package main

import "syscall"

// childAttr makes the kernel kill amosd when the benchmark dies, so a
// benchmark stopped by a signal leaves no server behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
