// Package des is the DES pad cipher of the functional protected memory.
//
// The paper's evaluation assumes a fast pipelined DES ASIC as the pad
// generator for one-time-pad memory encryption (Section 3.4.1 encrypts
// instruction pairs with DES under the vendor key); internal/crypto/engine
// models its latency. This package is a shim over crypto/des, kept so the
// functional layer and its callers name the cipher by this import path.
//
// DES is used here exactly as the paper uses it: as a pseudo-random
// permutation generating pads, not as a recommendation for new designs.
package des

import (
	"crypto/cipher"
	"crypto/des"
)

// NewCipher returns a DES block cipher for an 8-byte key. Parity bits are
// ignored, as in FIPS 46-2.
func NewCipher(key []byte) (cipher.Block, error) { return des.NewCipher(key) }

// NewTripleCipher returns a 3DES (EDE) block cipher for a 24-byte key
// K1|K2|K3. The paper's Section 3.3 names 3DES alongside AES as the stronger
// ciphers whose longer latency motivates Figure 10's 102-cycle experiment.
func NewTripleCipher(key []byte) (cipher.Block, error) { return des.NewTripleDESCipher(key) }
