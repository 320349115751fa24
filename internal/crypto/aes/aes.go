// Package aes is the AES pad cipher of the functional protected memory.
//
// The paper notes (Section 3.3) that "stronger ciphers such as AES" imply a
// longer encryption latency on XOM's critical path, and its Figure 10 models
// a 102-cycle unit; internal/crypto/engine models that latency. This
// package is a shim over crypto/aes, kept so the functional layer and its
// callers name the cipher by this import path.
package aes

import (
	"crypto/aes"
	"crypto/cipher"
)

// NewCipher returns an AES block cipher. The key must be 16, 24 or 32 bytes
// for AES-128/192/256 respectively.
func NewCipher(key []byte) (cipher.Block, error) { return aes.NewCipher(key) }
