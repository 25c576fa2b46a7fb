package fdir

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"safexplain/internal/nn"
)

// Golden-image recovery. At deployment the canonical serialized model
// (internal/nn/io.go) is captured together with its SHA-256; when FDIR
// quarantines the channel, the live image is re-deserialized from the
// golden copy — repairing SEU-corrupted weights — and the repair is
// verifiable: the restored network's content hash must equal the
// deployment hash.

// ErrGoldenCorrupt is returned when the stored golden image fails its own
// hash check — the spare itself took a fault and must not be loaded.
//
//safexplain:req REQ-PATTERN
var ErrGoldenCorrupt = errors.New("fdir: golden image fails hash verification")

// Golden holds the canonical serialized model and its content hash.
//
//safexplain:req REQ-PATTERN
type Golden struct {
	image []byte
	hash  string
}

// NewGolden captures net's canonical serialization as the golden image.
//
//safexplain:req REQ-PATTERN
func NewGolden(net *nn.Network) (*Golden, error) {
	image, err := nn.Marshal(net)
	if err != nil {
		return nil, fmt.Errorf("fdir: capture golden image: %w", err)
	}
	sum := sha256.Sum256(image)
	return &Golden{image: image, hash: hex.EncodeToString(sum[:])}, nil
}

// Hash returns the golden image's SHA-256 (identical to nn.Hash of the
// captured network).
func (g *Golden) Hash() string { return g.hash }

// Verify reports whether net's current content hash matches the golden
// image — the post-repair acceptance check.
func (g *Golden) Verify(net *nn.Network) bool {
	h, err := nn.Hash(net)
	return err == nil && h == g.hash
}

// Restore re-deserializes the golden image into live, replacing its
// layers (and so its weights) in place: channels holding the *nn.Network
// pointer see the repaired model. The stored image is hash-verified
// before deserialization so a corrupted spare is never loaded. Restore
// ends live's frame scope, if one is open, so no consumer later in the
// frame reads the forward result of the faulty image.
func (g *Golden) Restore(live *nn.Network) error {
	live.EndFrame()
	sum := sha256.Sum256(g.image)
	if hex.EncodeToString(sum[:]) != g.hash {
		return ErrGoldenCorrupt
	}
	reloaded, err := nn.Unmarshal(g.image)
	if err != nil {
		return fmt.Errorf("fdir: reload golden image: %w", err)
	}
	live.ID = reloaded.ID
	live.Layers = reloaded.Layers
	return nil
}
