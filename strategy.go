package spray

import (
	"fmt"
	"strconv"
	"strings"
)

type kind int

const (
	kindInvalid kind = iota
	kindBuiltin
	kindDense
	kindAtomic
	kindMap
	kindBTree
	kindBlockPrivate
	kindBlockLock
	kindBlockCAS
	kindKeeper
	kindOrdered
	kindAuto
	kindCompensated
)

// DefaultBlockSize is used by the block strategies when no explicit size
// is given; 1024 sits in the wide plateau of good sizes found in the
// paper's Figure 13 sweep.
const DefaultBlockSize = 1024

// Strategy names a reduction scheme plus its parameters. Strategies are
// plain values: comparable, printable, parseable — so applications can
// select the scheme from configuration, the paper's performance
// portability argument.
type Strategy struct {
	kind    kind
	param   int // block size for block-*, node degree for btree
	planned bool
}

// Builtin selects the model of the compiler-provided OpenMP reduction
// clause (full privatization with a serialized end-of-region combine).
func Builtin() Strategy { return Strategy{kind: kindBuiltin} }

// Dense selects the SPRAY DenseReduction (full privatization, parallel
// combine).
func Dense() Strategy { return Strategy{kind: kindDense} }

// Atomic selects the SPRAY AtomicReduction (CAS updates in place, zero
// memory overhead).
func Atomic() Strategy { return Strategy{kind: kindAtomic} }

// Map selects the hash-map-backed SPRAY MapReduction.
func Map() Strategy { return Strategy{kind: kindMap} }

// BTree selects the B-tree-backed SPRAY MapReduction; degree <= 0 uses the
// tree's default node degree.
func BTree(degree int) Strategy { return Strategy{kind: kindBTree, param: degree} }

// BlockPrivate selects the block-private BlockReduction with the given
// power-of-two block size (<= 0 selects DefaultBlockSize).
func BlockPrivate(blockSize int) Strategy {
	return Strategy{kind: kindBlockPrivate, param: defaultBlock(blockSize)}
}

// BlockLock selects the lock-claiming BlockReduction.
func BlockLock(blockSize int) Strategy {
	return Strategy{kind: kindBlockLock, param: defaultBlock(blockSize)}
}

// BlockCAS selects the CAS-claiming BlockReduction.
func BlockCAS(blockSize int) Strategy {
	return Strategy{kind: kindBlockCAS, param: defaultBlock(blockSize)}
}

// Keeper selects the KeeperReduction (static ownership plus update-request
// queues).
func Keeper() Strategy { return Strategy{kind: kindKeeper} }

// Ordered selects the deterministic update-log strategy (an extension
// beyond the paper): bitwise-reproducible results under deterministic
// schedules, at memory cost proportional to the number of updates.
func Ordered() Strategy { return Strategy{kind: kindOrdered} }

// Auto selects the adaptive strategy (an extension implementing the
// paper's outlook of a generic reducer): atomic updates that privatize
// individual blocks once they prove hot. blockSize <= 0 selects
// DefaultBlockSize.
func Auto(blockSize int) Strategy {
	return Strategy{kind: kindAuto, param: defaultBlock(blockSize)}
}

// Compensated selects the Kahan-compensated dense strategy (an extension
// realizing the paper's "more accurate summation" templating point):
// per-thread partials carry correction terms, at twice Dense's memory.
func Compensated() Strategy { return Strategy{kind: kindCompensated} }

// Planned wraps any strategy with the plan-compiled inspector–executor:
// the first region records the per-thread update stream through the
// inner strategy, then compiles it into thread-owned segments plus
// cross-thread exchange lists; subsequent identical regions bypass the
// inner strategy entirely and run race-free owned loops with a
// deterministic exchange merge at finalize. A region that deviates from
// the recorded pattern (unseen index, reshaped batch, missing thread) is
// completed correctly, invalidates the plan, and triggers a re-record;
// repeated invalidation degrades to a permanent passthrough. Prints and
// parses as "plan+<inner>", e.g. "plan+atomic" or "plan+keeper".
// Worth it for iterative workloads (tMV time loops, FEM assembly, conv
// backprop) that replay one index pattern many times — the inspection
// cost amortizes like MKL's inspector/executor; a pattern that changes
// every region only pays recording overhead.
func Planned(inner Strategy) Strategy {
	inner.planned = true
	return inner
}

func defaultBlock(b int) int {
	if b <= 0 {
		return DefaultBlockSize
	}
	return b
}

// String renders the strategy in the paper's naming convention, e.g.
// "block-cas-1024" or "plan+atomic".
func (s Strategy) String() string {
	if s.planned {
		base := s
		base.planned = false
		return "plan+" + base.String()
	}
	switch s.kind {
	case kindBuiltin:
		return "omp-builtin"
	case kindDense:
		return "dense"
	case kindAtomic:
		return "atomic"
	case kindMap:
		return "map"
	case kindBTree:
		if s.param > 0 {
			return fmt.Sprintf("btree-%d", s.param)
		}
		return "btree"
	case kindBlockPrivate:
		return fmt.Sprintf("block-private-%d", s.param)
	case kindBlockLock:
		return fmt.Sprintf("block-lock-%d", s.param)
	case kindBlockCAS:
		return fmt.Sprintf("block-cas-%d", s.param)
	case kindKeeper:
		return "keeper"
	case kindOrdered:
		return "ordered"
	case kindAuto:
		return fmt.Sprintf("auto-%d", s.param)
	case kindCompensated:
		return "compensated"
	default:
		return "invalid"
	}
}

// ParseStrategy parses the String form back into a Strategy. Block sizes
// and B-tree degrees are optional suffixes: "block-cas" means
// "block-cas-1024", "btree" uses the default degree.
//
// plan+ is the only wrapper prefix and applies once, directly on a base
// strategy; a doubled wrapper is rejected with an error rather than
// silently collapsed.
func ParseStrategy(s string) (Strategy, error) {
	if rest, ok := strings.CutPrefix(s, "plan+"); ok {
		inner, err := ParseStrategy(rest)
		if err != nil {
			return Strategy{}, err
		}
		if inner.planned {
			return Strategy{}, fmt.Errorf("spray: strategy %q stacks the plan wrapper twice", s)
		}
		return Planned(inner), nil
	}
	switch s {
	case "omp-builtin", "builtin", "omp":
		return Builtin(), nil
	case "dense":
		return Dense(), nil
	case "atomic":
		return Atomic(), nil
	case "map":
		return Map(), nil
	case "keeper":
		return Keeper(), nil
	case "ordered":
		return Ordered(), nil
	case "auto":
		return Auto(0), nil
	case "compensated":
		return Compensated(), nil
	case "btree":
		return BTree(0), nil
	case "block-private":
		return BlockPrivate(0), nil
	case "block-lock":
		return BlockLock(0), nil
	case "block-cas":
		return BlockCAS(0), nil
	}
	for prefix, mk := range map[string]func(int) Strategy{
		"btree-":         BTree,
		"block-private-": BlockPrivate,
		"block-lock-":    BlockLock,
		"block-cas-":     BlockCAS,
		"auto-":          Auto,
	} {
		if rest, ok := strings.CutPrefix(s, prefix); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n <= 0 {
				return Strategy{}, fmt.Errorf("spray: bad parameter in strategy %q", s)
			}
			return mk(n), nil
		}
	}
	return Strategy{}, fmt.Errorf("spray: unknown strategy %q", s)
}

// ParseStrategies parses a comma-separated list of strategy names.
func ParseStrategies(list string) ([]Strategy, error) {
	var out []Strategy
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		st, err := ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// AllStrategies returns one instance of every strategy (block strategies
// at DefaultBlockSize), in the order the paper's figures list them.
func AllStrategies() []Strategy {
	return []Strategy{
		Builtin(),
		Dense(),
		Atomic(),
		Map(),
		BTree(0),
		BlockPrivate(0),
		BlockLock(0),
		BlockCAS(0),
		Keeper(),
		Ordered(),
		Auto(0),
		Compensated(),
	}
}

// CompetitiveStrategies returns the subset the paper keeps in its results
// discussion after dropping the non-competitive map-based reducers.
func CompetitiveStrategies() []Strategy {
	return []Strategy{
		Builtin(),
		Dense(),
		Atomic(),
		BlockLock(0),
		BlockCAS(0),
		Keeper(),
	}
}
