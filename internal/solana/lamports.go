package solana

import "fmt"

// Lamports is an amount of SOL's smallest unit. One SOL is one billion
// lamports. Solana's base transaction fee is 5,000 lamports and Jito's
// minimum bundle tip is 1,000 lamports; both constants are defined here so
// every module shares one source of truth.
type Lamports uint64

const (
	// LamportsPerSOL is the number of lamports in one SOL.
	LamportsPerSOL Lamports = 1_000_000_000

	// BaseFee is Solana's base transaction fee (0.000005 SOL).
	BaseFee Lamports = 5_000

	// MinJitoTip is the smallest tip the Jito block engine accepts for a
	// bundle (0.000001 SOL).
	MinJitoTip Lamports = 1_000

	// DefensiveTipCeiling is the paper's §3.3 threshold: a length-1 bundle
	// whose tip is at or below this value buys no meaningful priority, so
	// the bundling is classified as MEV protection.
	DefensiveTipCeiling Lamports = 100_000
)

// SOL returns the amount in whole SOL as a float for reporting. All
// accounting is done in integer lamports; floats appear only at the edge.
func (l Lamports) SOL() float64 { return float64(l) / float64(LamportsPerSOL) }

// FromSOL converts a SOL amount to lamports, truncating sub-lamport dust.
func FromSOL(sol float64) Lamports {
	if sol <= 0 {
		return 0
	}
	return Lamports(sol * float64(LamportsPerSOL))
}

// String formats the amount as both lamports and SOL.
func (l Lamports) String() string {
	return fmt.Sprintf("%d lamports (%.9f SOL)", uint64(l), l.SOL())
}
