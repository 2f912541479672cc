// Semi-ring registry — the algebraic heart of the Lara/D4M lowering layer.
//
// A semi-ring (⊕, ⊗, 0, 1) parameterizes the three generic kernels in
// algebra/kernels.h: Join combines matching values with ⊗, Union/Normalize
// fold duplicate keys with ⊕, and the identities give absent entries their
// meaning (0 is "not stored"; 1 is what a lifted COUNT entry becomes).
// One kernel implementation then serves relational aggregation (+ over
// groups), sparse matrix multiply (+,× contraction), shortest-path/BFS
// relaxation (min,+), reliability products (max,×), and boolean reachability
// (∨,∧) — the paper's Coverage desideratum reduced to a table of monoids.
//
// Rings are closed under the scalar domains the engines use (int64 and
// float64). (max,×) is registered over the non-negative domain, where 0 is
// simultaneously the ⊕-identity and the ⊗-annihilator; VerifyContracts
// checks every law on domain-appropriate samples.
#ifndef NEXUS_ALGEBRA_SEMIRING_H_
#define NEXUS_ALGEBRA_SEMIRING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace nexus {
namespace algebra {

/// The six scalar monoid operations the registry composes rings from.
enum class MonoidOp : int { kAdd, kMul, kMin, kMax, kOr, kAnd };
const char* MonoidOpName(MonoidOp op);

/// Scalar application. kOr/kAnd treat nonzero as true and return 0/1.
double ApplyF(MonoidOp op, double a, double b);
int64_t ApplyI(MonoidOp op, int64_t a, int64_t b);

/// One registered semi-ring. `zero`/`one` are stored explicitly per scalar
/// domain rather than derived, because a ring may restrict its domain (see
/// max_times above).
struct Semiring {
  std::string name;
  MonoidOp plus = MonoidOp::kAdd;
  MonoidOp times = MonoidOp::kMul;
  double zero_f = 0.0;
  double one_f = 1.0;
  int64_t zero_i = 0;
  int64_t one_i = 1;
  /// COUNT-style lifted ring: every stored value is mapped to `one` before
  /// any ⊕/⊗ combination, so Union⊕ counts entries and Join⊗ counts pairs.
  bool lift = false;
};

/// The built-in rings: plus_times, min_plus, max_times, or_and, count.
const std::vector<Semiring>& SemiringRegistry();

/// Lookup by name; nullptr when unknown.
const Semiring* FindSemiring(const std::string& name);

/// Checks ⊕ associativity/commutativity/identity, ⊗ associativity/identity,
/// distributivity of ⊗ over ⊕, and 0-annihilation over deterministic
/// domain-appropriate samples in both scalar domains. Every registered ring
/// passes; user-composed rings can be validated before use.
Status VerifyContracts(const Semiring& s);

/// True when semi-ring lowering is enabled: the programmatic override if
/// set, else NEXUS_SEMIRING ("off"/"0" disables; default on). Gates the
/// aggregate routing (LowerAggregate, and the non-relational providers'
/// claim on kAggregate) and the optimizer's lower_semiring pass —
/// switchable like NEXUS_FUSION, and byte-identical either way. SpMV,
/// SpGEMM, BFS and PageRank always run on the CSR kernels (algebra/csr.h).
bool SemiringLoweringEnabled();
void SetSemiringLoweringOverride(bool on);
void ClearSemiringLoweringOverride();

}  // namespace algebra
}  // namespace nexus

#endif  // NEXUS_ALGEBRA_SEMIRING_H_
