module Budget = Phom_graph.Budget
module Td = Phom_treedecomp.Treedecomp
module Dpx = Phom_treedecomp.Dp_exact

let width (t : Instance.t) = Td.width t.Instance.g1

let relaxed ?budget ~objective (t : Instance.t) =
  let nice = Td.nice (Td.compute t.Instance.g1) in
  Dpx.solve ?budget ~g1:t.Instance.g1 ~tc2:t.Instance.tc2
    ~cands:(Instance.candidates t)
    ~pair_value:(Exact.pair_value objective t)
    nice

let solve ?(injective = false) ?budget ~objective (t : Instance.t) =
  let o = relaxed ?budget ~objective t in
  let witness_ok =
    (not injective) || Mapping.is_injective o.Dpx.mapping
  in
  if witness_ok || o.Dpx.status <> Budget.Complete then
    (* an injective witness of the non-injective relaxation is optimal for
       the 1-1 problem too: the relaxation bounds it from above and the
       witness is feasible. A tripped DP keeps its (empty) anytime answer —
       the budget is spent either way. *)
    { Exact.mapping = Mapping.normalize o.Dpx.mapping; status = o.Dpx.status }
  else Exact.solve ~injective:true ?budget ~objective t

type count_result = {
  count : int;
  exact : bool;
  width : int;
  status : Budget.status;
}

let count ?budget (t : Instance.t) =
  let td = Td.compute t.Instance.g1 in
  let c =
    Dpx.count ?budget ~g1:t.Instance.g1 ~tc2:t.Instance.tc2
      ~cands:(Instance.candidates t)
      (Td.nice td)
  in
  {
    count = c.Dpx.count;
    exact = c.Dpx.exact;
    width = td.Td.width;
    status = c.Dpx.status;
  }
