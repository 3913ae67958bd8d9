// The compiled form of a NameSpecifier: av-pairs carrying interned SymbolIds
// and pre-parsed numerics, flattened into one contiguous node array.
//
// A specifier is compiled exactly once — at parse/decode time on the update
// path, or per store operation on the query path — and then reused against
// any tree that shares its symbol table. Grafting and LOOKUP-NAME thereafter
// run on integer compares: no std::string hashing, no per-candidate strtod.
//
// Two compile modes:
//   * ForUpdate interns every attribute and value token (writer path; may
//     grow the symbol table). It also parses each literal token as a number
//     once, so range matching against the grafted value-node is a cached
//     double compare.
//   * ForQuery only probes (lock-free, never mutates the table). A token the
//     table has never seen compiles to kInvalidSymbol, which the tree's flat
//     maps treat as "matches no child" — precisely the semantics of a value
//     advertised nowhere; an unknown *attribute* likewise probes absent at
//     every node, which is LOOKUP-NAME's `if Ta = null then continue`.
//
// Layout: nodes in level order; each node addresses its children as a dense
// [child_begin, child_begin + child_count) range, roots at [0, root_count).

#ifndef INS_NAME_COMPILED_NAME_H_
#define INS_NAME_COMPILED_NAME_H_

#include <cstdint>
#include <vector>

#include "ins/name/name_specifier.h"
#include "ins/name/symbol_table.h"

namespace ins {

struct CompiledAvNode {
  SymbolId attribute = kInvalidSymbol;
  SymbolId token = kInvalidSymbol;  // interned Value::ToToken() text
  Value::Kind kind = Value::Kind::kWildcard;
  // Range kinds: the bound. Literal kinds: the token parsed as a number
  // (valid only when has_number), cached on the value-node at graft time.
  double number = 0.0;
  bool has_number = false;
  uint32_t child_begin = 0;
  uint32_t child_count = 0;
};

class CompiledName {
 public:
  CompiledName() = default;

  // Interns every symbol (update/graft path). `table` must outlive uses.
  static CompiledName ForUpdate(const NameSpecifier& name, SymbolTable* table);

  // Read-only probe compile (query path); never mutates `table`.
  static CompiledName ForQuery(const NameSpecifier& name, const SymbolTable& table);

  // ForQuery into an existing instance, reusing its node capacity. The
  // string-query entry points compile through a thread-local buffer so a
  // lookup costs no allocation beyond its result.
  static void ForQueryInto(const NameSpecifier& name, const SymbolTable& table,
                           CompiledName* out);

  const std::vector<CompiledAvNode>& nodes() const { return nodes_; }
  uint32_t root_count() const { return root_count_; }
  bool empty() const { return nodes_.empty(); }

  // Reconstructs the NameSpecifier (tests / round-trip checks). Nodes with
  // unresolved symbols (possible only in ForQuery output) are not
  // representable and must not be present.
  NameSpecifier Decompile(const SymbolTable& table) const;

 private:
  static void CompileInto(const NameSpecifier& name, SymbolTable* intern_into,
                          const SymbolTable& table, CompiledName* out);

  std::vector<CompiledAvNode> nodes_;
  uint32_t root_count_ = 0;
};

}  // namespace ins

#endif  // INS_NAME_COMPILED_NAME_H_
