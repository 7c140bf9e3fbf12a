//===- smt/NativeDecide.h - Exact integer decider for ψ ---------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ψ of Algorithm 2 laid out as data, and an exact decision procedure for
/// the fragment nearly every ψ falls in.
///
/// A Psi holds one entry per table-typed node of a hypothesis, in the
/// pre-order the Z3 encoding allocates attribute variables in. Each node
/// carries five integer variables (row, col, group, newCols, newVals) and
/// the domain axioms; an Apply node adds its component's spec atoms at the
/// configured level; the root is bound to α(Tout). Three kinds of facts
/// are constants rather than variables:
///  - input leaves: α(Ti) with group = 1;
///  - subtrees partial evaluation made concrete: α of the result on the
///    four non-group attributes (group stays abstract);
///  - the root: α(Tout) on the four non-group attributes.
///
/// NativeDecider case-splits every table hole over the example's inputs
/// (ϕin) and decides each case over the integers as a UTVPI system —
/// unit two-variable-per-inequality constraints ±x ±y ≤ c. Strict `<`
/// becomes `≤ c−1` and `==` two `≤`. The decision is the tight integer
/// octagon closure (Lahiri & Musuvathi 2005; Bagnara, Hill & Zaffanella
/// 2008): a system is integer-infeasible iff its doubled constraint graph
/// has a negative cycle, or some variable's derived bounds 2x ≤ a and
/// −2x ≤ b leave no integer once halved, ⌊a/2⌋ + ⌊b/2⌋ < 0.
///
/// An atom lies outside the fragment when, after substitution, it keeps
/// three or more unknowns, or its spec uses Min/Max or names one attribute
/// twice. Such atoms are left out, which relaxes ψ: when the rest is
/// already unsatisfiable so is ψ, and otherwise decide() returns nullopt
/// and the caller asks Z3. Specs are data (Definition 2), so a user spec
/// may leave the fragment at any time.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SMT_NATIVEDECIDE_H
#define MORPHEUS_SMT_NATIVEDECIDE_H

#include "lang/Component.h"
#include "spec/Abstraction.h"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace morpheus {

/// One table-typed node of ψ.
struct PsiNode {
  enum class Kind : uint8_t { Input, Hole, Apply };
  Kind K = Kind::Input;
  /// Input: Abs binds all five attributes (group = 1). Apply: Abs binds
  /// row, col, newCols and newVals of a subtree partial evaluation made
  /// concrete. Hole: never concrete.
  bool Concrete = false;
  const TableTransformer *X = nullptr; ///< Apply: the component
  uint32_t FirstArg = 0;               ///< Apply: slice of Psi::Args
  AttrValues Abs;
};

/// ψ of one deduce call.
struct Psi {
  /// Identifies the node layout (kinds, components, input leaves): two
  /// Psis with equal Shape differ at most in their Apply bindings.
  uint64_t Shape = 0;
  std::vector<PsiNode> Nodes; ///< pre-order; Nodes[0] is the root
  /// Node indices of each Apply node's table arguments, X->numTableArgs()
  /// of them starting at PsiNode::FirstArg.
  std::vector<uint32_t> Args;

  void clear() {
    Nodes.clear();
    Args.clear();
  }
};

/// Decides ψ over one example. Not thread-safe (it reuses scratch
/// buffers); one per DeductionEngine.
class NativeDecider {
public:
  explicit NativeDecider(const ExampleContext &Ex);

  /// true: ψ is satisfiable; false: unsatisfiable (the hypothesis is
  /// refuted); nullopt: some atom is outside the UTVPI fragment and the
  /// rest is satisfiable.
  std::optional<bool> decide(const Psi &Q, SpecLevel Level);

  /// The group-free atoms of \p X's spec at \p Level: the ones a node
  /// whose arguments and result are all concrete evaluates directly.
  const SpecFormula &nonGroup(const TableTransformer *X, SpecLevel Level) {
    return spec(X, Level).NonGroup;
  }

  /// Σ Coef·attr + K ≤ 0, or == 0 when Eq. Arg −1 names the result.
  struct LinAtom {
    struct Term {
      int8_t Arg;
      uint8_t Attr;
      int8_t Coef;
    };
    std::vector<Term> Terms;
    int64_t K = 0;
    bool Eq = false;
  };

private:
  struct CompiledSpec {
    bool InFragment = true; ///< no Min/Max, no attribute named twice
    std::vector<LinAtom> Atoms;
    SpecFormula NonGroup;
  };

  /// An atom after substitution: at most two unknowns, plus terms over
  /// hole rows/columns, which are constant within each ϕin case.
  struct Reduced {
    uint32_t Var[2];
    int8_t Coef[2];
    uint8_t N = 0;
    bool Eq = false;
    int64_t K = 0;
    uint32_t FirstCase = 0, NumCase = 0; ///< slice of CaseTerms
  };
  struct CaseTerm {
    uint32_t Slot; ///< hole index * 2 + (0 row, 1 col)
    int8_t Coef;
  };
  /// One case's two-unknown constraint: Sx·x + Sy·y ≤ C.
  struct Edge {
    uint32_t X, Y;
    int8_t Sx, Sy;
    int64_t C;
  };

  const ExampleContext &Ex;
  /// ϕin's disjuncts: the distinct (row, col) pairs of the inputs.
  std::vector<std::pair<int64_t, int64_t>> Choices;
  /// Keyed on the component pointer, one slot per level; the standard
  /// libraries are immutable singletons (as in smt/SpecCompiler.h).
  std::unordered_map<const TableTransformer *, std::vector<CompiledSpec>>
      Specs;

  // Scratch reused across calls.
  std::vector<uint32_t> VarOf; ///< node*5+attr -> unknown id, or a marker
  std::vector<int64_t> ValOf;  ///< node*5+attr -> constant value
  std::vector<Reduced> Atoms;
  std::vector<CaseTerm> CaseTerms;
  std::vector<Edge> Edges;
  std::vector<int64_t> Dist;
  std::vector<uint32_t> GraphId;
  std::vector<int64_t> Lo, Hi;
  std::vector<int64_t> HoleVals; ///< per case: hole rows and columns
  std::vector<uint32_t> Pick;    ///< per case: each hole's Choices index

  const CompiledSpec &spec(const TableTransformer *X, SpecLevel Level);
  bool addAtom(const LinAtom &A, const Psi &Q, uint32_t Self);
  bool decideCase(uint32_t NumVars);
  bool utvpiSat(uint32_t NumVars);
};

} // namespace morpheus

#endif // MORPHEUS_SMT_NATIVEDECIDE_H
