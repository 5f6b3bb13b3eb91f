// Package jito models the Jito block engine: the validator-client extension
// that accepts bundles of up to five transactions, orders them by tip, and
// executes each bundle atomically within a block (paper §2.3).
//
// It also defines the record types the Jito Explorer exposes — bundleIds,
// the transactionIds inside each bundle, the bundle's tip, and per-
// transaction balance details — which are the only inputs the paper's
// measurement pipeline ever sees.
package jito

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"jitomev/internal/ledger"
	"jitomev/internal/solana"
)

// MaxBundleTxs is the bundle size limit: "Jito allows users ... to bundle
// up to five transactions per request" (paper §2.3).
const MaxBundleTxs = 5

// NumTipAccounts is the number of designated tip payment accounts the real
// Jito block engine rotates over.
const NumTipAccounts = 8

// TipAccounts are the designated accounts a bundle must tip to be accepted.
var TipAccounts = func() [NumTipAccounts]solana.Pubkey {
	var out [NumTipAccounts]solana.Pubkey
	for i := range out {
		out[i] = solana.NewKeypairFromSeed(fmt.Sprintf("jito/tip-account/%d", i)).Pubkey()
	}
	return out
}()

// IsTipAccount reports whether p is one of the designated tip accounts.
func IsTipAccount(p solana.Pubkey) bool {
	for _, a := range TipAccounts {
		if a == p {
			return true
		}
	}
	return false
}

// BundleID identifies a bundle. Jito assigns bundles their own ids distinct
// from the transactionIds inside (paper §2.3); we derive the id from the
// content so it is stable and collision-free.
type BundleID [32]byte

// String returns the hexadecimal form, matching the Jito Explorer's style.
func (id BundleID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated form for logs.
func (id BundleID) Short() string { return hex.EncodeToString(id[:4]) }

// MarshalJSON encodes the id as a hex JSON string.
func (id BundleID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON decodes a hex JSON string.
func (id *BundleID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("bundle id: %w", err)
	}
	if len(raw) != 32 {
		return fmt.Errorf("bundle id: %d bytes, want 32", len(raw))
	}
	copy(id[:], raw)
	return nil
}

// Errors returned by bundle validation and submission.
var (
	ErrEmptyBundle    = errors.New("jito: bundle has no transactions")
	ErrBundleTooLarge = fmt.Errorf("jito: bundle exceeds %d transactions", MaxBundleTxs)
	ErrTipTooSmall    = fmt.Errorf("jito: bundle tip below minimum %d lamports", solana.MinJitoTip)
	ErrNoTipAccount   = errors.New("jito: tip not paid to a designated tip account")
)

// Bundle is an ordered group of transactions submitted for atomic
// execution.
type Bundle struct {
	Txs []*solana.Transaction
}

// NewBundle builds a bundle from transactions in execution order.
func NewBundle(txs ...*solana.Transaction) *Bundle { return &Bundle{Txs: txs} }

// ID derives the bundleId from the contained transaction signatures.
func (b *Bundle) ID() BundleID {
	h := sha256.New()
	h.Write([]byte("jitomev/bundle/"))
	for _, tx := range b.Txs {
		h.Write(tx.Sig[:])
	}
	var id BundleID
	h.Sum(id[:0])
	return id
}

// Len returns the number of transactions in the bundle.
func (b *Bundle) Len() int { return len(b.Txs) }

// Tip returns the total tip the bundle pays into designated tip accounts.
func (b *Bundle) Tip() solana.Lamports {
	var total solana.Lamports
	for _, tx := range b.Txs {
		for _, in := range tx.Instructions {
			if t, ok := in.(*solana.Tip); ok && IsTipAccount(t.TipAccount) {
				total += t.Amount
			}
		}
	}
	return total
}

// TxIDs returns the transaction signatures in bundle order.
func (b *Bundle) TxIDs() []solana.Signature {
	out := make([]solana.Signature, len(b.Txs))
	for i, tx := range b.Txs {
		out[i] = tx.Sig
	}
	return out
}

// Validate checks bundle structure: size bounds, signed member
// transactions, a tip of at least MinJitoTip paid to a designated account.
func (b *Bundle) Validate() error {
	if len(b.Txs) == 0 {
		return ErrEmptyBundle
	}
	if len(b.Txs) > MaxBundleTxs {
		return ErrBundleTooLarge
	}
	for i, tx := range b.Txs {
		if err := tx.Validate(); err != nil {
			return fmt.Errorf("jito: bundle tx %d: %w", i, err)
		}
	}
	if !b.paysTipAccount() {
		return ErrNoTipAccount
	}
	if b.Tip() < solana.MinJitoTip {
		return ErrTipTooSmall
	}
	return nil
}

func (b *Bundle) paysTipAccount() bool {
	for _, tx := range b.Txs {
		for _, in := range tx.Instructions {
			if t, ok := in.(*solana.Tip); ok && IsTipAccount(t.TipAccount) {
				return true
			}
		}
	}
	return false
}

// BundleRecord is what the Explorer's recent-bundles endpoint returns per
// bundle: "Jito's API endpoint only provides the bundleIds, the
// corresponding transactionIds within that bundle, as well as the
// associated Jito tip; it does not provide the full content of included
// transactions" (paper §3.1).
type BundleRecord struct {
	Seq      uint64             `json:"seq"` // monotone acceptance sequence, newest last
	ID       BundleID           `json:"bundleId"`
	Slot     solana.Slot        `json:"slot"`
	UnixMs   int64              `json:"timestamp"`
	TxIDs    []solana.Signature `json:"transactions"`
	TipLamps uint64             `json:"tipLamports"`
}

// NumTxs returns the bundle length.
func (r *BundleRecord) NumTxs() int { return len(r.TxIDs) }

// Equal reports whether two records carry the same data. A nil and an
// empty TxIDs slice compare equal: serialization round trips (the
// snapshot codec among them) do not preserve that distinction.
func (r *BundleRecord) Equal(o *BundleRecord) bool {
	if r.Seq != o.Seq || r.ID != o.ID || r.Slot != o.Slot ||
		r.UnixMs != o.UnixMs || r.TipLamps != o.TipLamps ||
		len(r.TxIDs) != len(o.TxIDs) {
		return false
	}
	for i := range r.TxIDs {
		if r.TxIDs[i] != o.TxIDs[i] {
			return false
		}
	}
	return true
}

// Tip returns the bundle tip.
func (r *BundleRecord) Tip() solana.Lamports { return solana.Lamports(r.TipLamps) }

// TokenDelta is a per-transaction balance change as serialized by the
// Explorer's detail endpoint.
type TokenDelta struct {
	Owner solana.Pubkey `json:"owner"`
	Mint  solana.Pubkey `json:"mint"`
	Delta int64         `json:"delta"`
}

// TxDetail is what the Explorer's bulk transaction endpoint returns: the
// signer, the token balance changes, the lamport tip, and whether the
// transaction does anything besides tipping. This is deliberately the
// complete input surface of the paper's detector.
type TxDetail struct {
	Sig         solana.Signature `json:"signature"`
	Signer      solana.Pubkey    `json:"signer"`
	Slot        solana.Slot      `json:"slot"`
	Failed      bool             `json:"failed,omitempty"`
	TipLamports uint64           `json:"tipLamports,omitempty"`
	TipOnly     bool             `json:"tipOnly,omitempty"`
	TokenDeltas []TokenDelta     `json:"tokenDeltas,omitempty"`
}

// Equal reports whether two details carry the same data, treating nil
// and empty TokenDeltas as equal (see BundleRecord.Equal).
func (d *TxDetail) Equal(o *TxDetail) bool {
	if d.Sig != o.Sig || d.Signer != o.Signer || d.Slot != o.Slot ||
		d.Failed != o.Failed || d.TipLamports != o.TipLamports ||
		d.TipOnly != o.TipOnly || len(d.TokenDeltas) != len(o.TokenDeltas) {
		return false
	}
	for i := range d.TokenDeltas {
		if d.TokenDeltas[i] != o.TokenDeltas[i] {
			return false
		}
	}
	return true
}

// DetailFromResult converts an execution result into the Explorer's detail
// record.
func DetailFromResult(res *ledger.TxResult, slot solana.Slot) TxDetail {
	d := TxDetail{
		Sig:         res.Sig,
		Signer:      res.Signer,
		Slot:        slot,
		Failed:      res.Err != nil,
		TipLamports: uint64(res.Tip),
		TipOnly:     res.TipOnly,
	}
	if n := len(res.TokenDeltas); n > 0 {
		d.TokenDeltas = make([]TokenDelta, n)
		for i, td := range res.TokenDeltas {
			d.TokenDeltas[i] = TokenDelta{Owner: td.Owner, Mint: td.Mint, Delta: td.Delta}
		}
	}
	return d
}
