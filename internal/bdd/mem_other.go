//go:build !linux

package bdd

// Off Linux every table is made in the Go heap.

func mapAnon(size int) []byte { return nil }

func unmapAnon(b []byte) {}
