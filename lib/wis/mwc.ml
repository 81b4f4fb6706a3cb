(* Bitset-native exact maximum-weight-clique engine.

   Jain & Obermayer's equivalence makes the exact p-hom/1-1 p-hom path a
   maximum-weight-clique problem on the Theorem-5.1 compatibility graph, so
   this engine is the quality ceiling of the whole exact tier. The design is
   the modern MWC recipe (Tomita's colouring-bounded branch and bound,
   specialized to weights, in the style of WLMC/TSM):

   - adjacency lives in bitset rows in a vertex order computed once per
     instance (weight-degeneracy: repeatedly peel the vertex minimizing its
     own weight plus its remaining neighbourhood weight), so every candidate
     set is an incremental bitset intersection;
   - every search node greedily colours its candidate set — classes are
     pairwise non-adjacent, so a clique takes at most one vertex per class —
     and sums the running per-class weight maxima into a per-prefix upper
     bound; branches whose bound cannot beat the incumbent are cut;
   - before the search, deterministic greedy restarts (budgeted probes from
     the heaviest vertices, then tick-free greedy dives from every
     degeneracy root and degree-guided dives from the densest core) raise
     the incumbent, usually to the optimum, so the search is mostly proof
     and even a first-tick budget trip returns a non-trivial clique;
   - one {!Phom_graph.Budget} tick per search node preserves the repo-wide
     anytime contract: a trip unwinds with the best clique found so far and
     an [Exhausted] status, exactly like the legacy engine. *)

module Bitset = Phom_graph.Bitset
module Budget = Phom_graph.Budget
module Obs = Phom_obs.Obs

type result = { clique : int list; weight : float; status : Budget.status }

let m_branches = lazy (Obs.counter "phom_solver_mwc_branches_total")
let m_cuts = lazy (Obs.counter "phom_solver_mwc_bound_cuts_total")
let m_colourings = lazy (Obs.counter "phom_solver_mwc_colouring_rounds_total")
let m_restarts = lazy (Obs.counter "phom_solver_mwc_restarts_total")

let m_branches_per_solve =
  lazy
    (Obs.histogram
       ~buckets:[| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]
       "phom_solver_mwc_branches_per_solve")

(* local tallies flushed to the registry once per solve: the hot loop must
   not pay an atomic per node *)
type tally = {
  mutable branches : int;
  mutable cuts : int;
  mutable colourings : int;
}

(* weight-degeneracy ordering: repeatedly remove the vertex minimizing
   w(v) + w(N(v) ∩ remaining); ties break on the smaller index so the order
   is a pure function of the graph. O(n²) with bitset rows. *)
let degeneracy_order g w =
  let n = Ungraph.n g in
  let remaining = Bitset.full n in
  let nbw = Array.init n (fun v ->
      Bitset.fold (fun u acc -> acc +. w.(u)) (Ungraph.neighbors g v) 0.)
  in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) and best_score = ref infinity in
    Bitset.iter
      (fun v ->
        let score = w.(v) +. nbw.(v) in
        if score < !best_score then begin
          best := v;
          best_score := score
        end)
      remaining;
    let v = !best in
    order.(k) <- v;
    Bitset.remove remaining v;
    Bitset.iter
      (fun u -> if Bitset.mem remaining u then nbw.(u) <- nbw.(u) -. w.(v))
      (Ungraph.neighbors g v)
  done;
  order

(* the instance the search runs on. Vertices keep their original ids: the
   product-graph builder emits them row-major (one row per pattern vertex),
   and rows are independent sets, so first-fit colouring in id order is
   near-optimal — renumbering would wreck the bound. The degeneracy order
   instead drives the incumbent machinery: probe starts, one greedy dive
   per root (vertex [order.(k)] over [adj ∩ later.(k)]), and the
   densest-core tie-breaks ([pos]). *)
type inst = {
  n : int;
  adj : Bitset.t array;  (** bitset adjacency rows, original ids *)
  w : float array;
  order : int array;  (** degeneracy order: order.(k) = k-th peeled vertex *)
  pos : int array;  (** inverse of [order]: pos.(v) = peel position of v *)
  later : Bitset.t array;  (** later.(k) = {v | peeled after position k} *)
}

let build_inst g weights =
  let n = Ungraph.n g in
  let order = degeneracy_order g weights in
  let adj = Array.init n (Ungraph.neighbors g) in
  let later = Array.make n (Bitset.create n) in
  let remaining = Bitset.full n in
  for k = 0 to n - 1 do
    Bitset.remove remaining order.(k);
    later.(k) <- Bitset.copy remaining
  done;
  let pos = Array.make n 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  { n; adj; w = Array.copy weights; order; pos; later }

(* per-depth hot-loop buffers: the colouring emission ([vs]/[bnd]) and the
   two candidate sets of the branch loop. Created lazily the first time a
   depth is reached, then reused for every node at that depth — the search
   itself allocates nothing, which matters under OCaml 5 where a single
   allocation-heavy domain drags every other domain through its minor
   collections. *)
type scratch = {
  vs : int array;
  bnd : float array;
  cur : Bitset.t;
  nxt : Bitset.t;
}

(* mutable search state, one per solve *)
type state = {
  inst : inst;
  stack : int array;  (** current clique, stack.(0..depth-1) *)
  mutable best : int list;  (** best clique found so far *)
  mutable best_w : float;
  t : tally;
  levels : scratch option array;  (** per-depth buffers, lazily built *)
  cls : Bitset.t array;  (** colour classes, lazily built, cleared on exit *)
  mutable cls_alloc : int;  (** classes materialized in [cls] so far *)
  cls_head : int array;  (** first member of class c, -1 when empty *)
  cls_tail : int array;  (** last member of class c *)
  nxt_member : int array;  (** intrusive member chain, -1-terminated *)
}

let make_state inst =
  let n = max 1 inst.n in
  {
    inst;
    stack = Array.make n 0;
    best = [];
    best_w = 0.;
    t = { branches = 0; cuts = 0; colourings = 0 };
    levels = Array.make n None;
    cls = Array.make n (Bitset.create 0);
    cls_alloc = 0;
    cls_head = Array.make n (-1);
    cls_tail = Array.make n 0;
    nxt_member = Array.make n (-1);
  }

let level st depth =
  match st.levels.(depth) with
  | Some sc -> sc
  | None ->
      let n = st.inst.n in
      let sc =
        {
          vs = Array.make n 0;
          bnd = Array.make n 0.;
          cur = Bitset.create n;
          nxt = Bitset.create n;
        }
      in
      st.levels.(depth) <- Some sc;
      sc

let record st depth cw =
  st.best_w <- cw;
  let c = ref [] in
  for i = depth - 1 downto 0 do
    c := st.stack.(i) :: !c
  done;
  st.best <- !c

(* greedy weighted colouring of [cand]: classes are independent sets built
   first-fit in index order; emits the vertices class by class together with
   the admissible per-prefix bound (sum of closed-class maxima plus the
   running maximum of the open class). Returns the emission count. All the
   working storage lives in the state — class bitsets are reused across
   calls (cleared on the way out) and members chain through the intrusive
   [nxt_member] array in insertion order. *)
let colour st cand vs bnd =
  let inst = st.inst in
  let n_classes = ref 0 in
  Bitset.iter
    (fun v ->
      let rec place c =
        if c = !n_classes then begin
          if c = st.cls_alloc then begin
            st.cls.(c) <- Bitset.create inst.n;
            st.cls_alloc <- st.cls_alloc + 1
          end;
          Bitset.add st.cls.(c) v;
          st.cls_head.(c) <- v;
          st.cls_tail.(c) <- v;
          st.nxt_member.(v) <- -1;
          incr n_classes
        end
        else if Bitset.disjoint inst.adj.(v) st.cls.(c) then begin
          Bitset.add st.cls.(c) v;
          st.nxt_member.(st.cls_tail.(c)) <- v;
          st.cls_tail.(c) <- v;
          st.nxt_member.(v) <- -1
        end
        else place (c + 1)
      in
      place 0)
    cand;
  let pos = ref 0 and closed = ref 0. in
  for c = 0 to !n_classes - 1 do
    let running = ref 0. in
    let v = ref st.cls_head.(c) in
    while !v >= 0 do
      running := Float.max !running inst.w.(!v);
      vs.(!pos) <- !v;
      bnd.(!pos) <- !closed +. !running;
      incr pos;
      v := st.nxt_member.(!v)
    done;
    closed := !closed +. !running;
    Bitset.clear st.cls.(c);
    st.cls_head.(c) <- -1
  done;
  !pos

exception Cut

let rec expand st budget depth cw cand =
  st.t.branches <- st.t.branches + 1;
  Budget.tick_exn budget;
  if cw > st.best_w then record st depth cw;
  if not (Bitset.is_empty cand) then begin
    let inst = st.inst in
    st.t.colourings <- st.t.colourings + 1;
    let sc = level st depth in
    let len = colour st cand sc.vs sc.bnd in
    Bitset.copy_into ~into:sc.cur cand;
    (try
       for k = len - 1 downto 0 do
         let v = sc.vs.(k) in
         if cw +. sc.bnd.(k) <= st.best_w then begin
           st.t.cuts <- st.t.cuts + 1;
           raise Cut
         end;
         Bitset.remove sc.cur v;
         Bitset.copy_into ~into:sc.nxt sc.cur;
         Bitset.inter_into ~into:sc.nxt inst.adj.(v);
         st.stack.(depth) <- v;
         (* the child only reads [sc.nxt] (it copies into its own depth+1
            buffers before mutating), and we overwrite it only after the
            child returns *)
         expand st budget (depth + 1) (cw +. inst.w.(v)) sc.nxt
       done
     with Cut -> ())
  end

(* deterministic greedy restarts: grow a maximal clique from each of the
   heaviest [rounds] vertices, keep the best. Ties (all of them, under unit
   weights) break towards the latest-peeled vertex — the densest core of the
   graph, where the big cliques live — so the starts stay diverse instead of
   clustering in one product row. One budget tick per probe, so even the
   probes honour the anytime contract. *)
let restart_probes st budget rounds =
  let inst = st.inst in
  let by_weight = Array.init inst.n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare inst.w.(b) inst.w.(a) with
      | 0 -> compare inst.pos.(b) inst.pos.(a)
      | c -> c)
    by_weight;
  let rounds = min rounds inst.n in
  (try
     for r = 0 to rounds - 1 do
       Budget.tick_exn budget;
       Obs.incr (Lazy.force m_restarts);
       let start = by_weight.(r) in
       let clique = ref [ start ] and cw = ref inst.w.(start) in
       let cand = Bitset.copy inst.adj.(start) in
       let depth = ref 1 in
       while not (Bitset.is_empty cand) do
         let best = ref (-1) and best_w = ref neg_infinity in
         Bitset.iter
           (fun v ->
             if
               inst.w.(v) > !best_w
               || (inst.w.(v) = !best_w && (!best < 0 || inst.pos.(v) > inst.pos.(!best)))
             then begin
               best := v;
               best_w := inst.w.(v)
             end)
           cand;
         clique := !best :: !clique;
         cw := !cw +. !best_w;
         incr depth;
         Bitset.inter_into ~into:cand inst.adj.(!best)
       done;
       if !cw > st.best_w then begin
         st.best_w <- !cw;
         st.best <- List.rev !clique
       end
     done
   with Budget.Exhausted_budget -> ())

(* tick-free greedy dive from [v] over [cand]: deepest-first max-weight
   extension, ties towards the densest core. Polynomial preprocessing in the
   same spirit as the ordering itself — it raises the incumbent before any
   budget is spent so the colouring bound starts sharp. *)
let dive st v cand =
  let inst = st.inst in
  let cw = ref inst.w.(v) and depth = ref 1 in
  st.stack.(0) <- v;
  let cur = Bitset.copy cand in
  while not (Bitset.is_empty cur) do
    let best = ref (-1) and best_w = ref neg_infinity in
    Bitset.iter
      (fun u ->
        if
          inst.w.(u) > !best_w
          || (inst.w.(u) = !best_w
             && (!best < 0 || inst.pos.(u) > inst.pos.(!best)))
        then begin
          best := u;
          best_w := inst.w.(u)
        end)
      cur;
    st.stack.(!depth) <- !best;
    cw := !cw +. !best_w;
    incr depth;
    Bitset.inter_into ~into:cur inst.adj.(!best)
  done;
  if !cw > st.best_w then record st !depth !cw

(* degree-guided dive: like [dive] but each step picks the candidate
   maximizing weight × (1 + neighbourhood size inside the remaining
   candidates) — the classic max-clique greedy, costlier per step
   ([Bitset.inter_count] per candidate) but much better at landing on the
   optimum, so it runs from a few core starts rather than every root. *)
let dive_deg st v cand =
  let inst = st.inst in
  let cw = ref inst.w.(v) and depth = ref 1 in
  st.stack.(0) <- v;
  let cur = Bitset.copy cand in
  while not (Bitset.is_empty cur) do
    let best = ref (-1) and best_s = ref neg_infinity in
    Bitset.iter
      (fun u ->
        let s =
          inst.w.(u)
          *. float_of_int (1 + Bitset.inter_count cur inst.adj.(u))
        in
        if
          s > !best_s
          || (s = !best_s && (!best < 0 || inst.pos.(u) > inst.pos.(!best)))
        then begin
          best := u;
          best_s := s
        end)
      cur;
    st.stack.(!depth) <- !best;
    cw := !cw +. inst.w.(!best);
    incr depth;
    Bitset.inter_into ~into:cur inst.adj.(!best)
  done;
  if !cw > st.best_w then record st !depth !cw

(* the top level of the search tree: the whole vertex set is coloured once
   and each emission position's branch is expanded highest position first,
   exactly as [expand] would — branch k owns the cliques containing vs.(k)
   and none of vs.(k+1..) — but without [expand]'s root tick; the incumbent
   is whatever the restarts left in [st] *)
let search_root st budget =
  let inst = st.inst in
  let n = inst.n in
  let vs = Array.make n 0 and bnd = Array.make n 0. in
  let len = colour st (Bitset.full n) vs bnd in
  let cur = Bitset.full n and nxt = Bitset.create n in
  try
    for k = len - 1 downto 0 do
      let v = vs.(k) in
      if bnd.(k) <= st.best_w then begin
        st.t.cuts <- st.t.cuts + 1;
        raise Cut
      end;
      Bitset.remove cur v;
      Bitset.copy_into ~into:nxt cur;
      Bitset.inter_into ~into:nxt inst.adj.(v);
      st.stack.(0) <- v;
      expand st budget 1 inst.w.(v) nxt
    done
  with Cut | Budget.Exhausted_budget -> ()

let flush_tally t =
  Obs.add (Lazy.force m_branches) t.branches;
  Obs.add (Lazy.force m_cuts) t.cuts;
  Obs.add (Lazy.force m_colourings) t.colourings;
  Obs.observe (Lazy.force m_branches_per_solve) (float_of_int t.branches)

let solve_weights ?budget g weights =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~steps:10_000_000 ()
  in
  let n = Ungraph.n g in
  if n = 0 then { clique = []; weight = 0.; status = Budget.status budget }
  else begin
    let inst = build_inst g weights in
    let st = make_state inst in
    restart_probes st budget (max 1 (min 8 (n / 32)));
    (* tick-free dive pass: one greedy maximal clique per degeneracy root,
       strongest incumbent the polynomial tier can provide *)
    for k = n - 1 downto 0 do
      let v = inst.order.(k) in
      dive st v (Bitset.inter inst.adj.(v) inst.later.(k))
    done;
    (* a few degree-guided dives from the densest-core starts *)
    for i = 0 to min 31 (n - 1) do
      let v = inst.order.(n - 1 - i) in
      dive_deg st v inst.adj.(v)
    done;
    search_root st budget;
    flush_tally st.t;
    {
      clique = List.sort compare st.best;
      weight = st.best_w;
      status = Budget.status budget;
    }
  end

let solve ?budget g =
  let n = Ungraph.n g in
  solve_weights ?budget g (Array.init n (Ungraph.weight g))

let solve_cardinality ?budget g =
  solve_weights ?budget g (Array.make (Ungraph.n g) 1.)
