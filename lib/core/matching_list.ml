module Int_map = Map.Make (Int)
module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Bitset = Phom_graph.Bitset

let bits = Bitset.bits_per_word

(* node [v]'s candidates, ascending, are [rows.(v)], and a row of it takes
   [woff.(v + 1) - woff.(v)] words. The step under way has moved the
   positions in [mv.(woff.(v) ..)] of the nodes
   [touched.(0 .. ntouched - 1)], the ones [marked] *)
type universe = {
  g1 : D.t;
  tc2 : BM.t;
  mat : Phom_sim.Simmat.t;
  rows : int array array;
  woff : int array;
  mv : int array;
  touched : int array;
  marked : bool array;
  mutable ntouched : int;
}

let sorted_row row =
  let r = Array.copy row in
  Array.sort Int.compare r;
  let k = ref 0 in
  Array.iter
    (fun u ->
      if !k = 0 || r.(!k - 1) <> u then begin
        r.(!k) <- u;
        incr k
      end)
    r;
  if !k = Array.length r then r else Array.sub r 0 !k

let universe (t : Instance.t) =
  let rows = Array.map sorted_row (Instance.candidates t) in
  let n1 = Array.length rows in
  let woff = Array.make (n1 + 1) 0 in
  for v = 0 to n1 - 1 do
    woff.(v + 1) <- woff.(v) + ((Array.length rows.(v) + bits - 1) / bits)
  done;
  {
    g1 = t.g1;
    tc2 = t.tc2;
    mat = t.mat;
    rows;
    woff;
    mv = Array.make woff.(n1) 0;
    touched = Array.make n1 0;
    marked = Array.make n1 false;
    ntouched = 0;
  }

let nwords u v = u.woff.(v + 1) - u.woff.(v)

(* [nodes.(0 .. len - 1)] ascending; node [nodes.(i)] has good set the set
   bits of its row, [words.(first.(i) ..)], and [sizes.(i)] of them. Steps
   clear bits in place. A position whose row empties stays, with size 0,
   until such dead positions outnumber the [live] ones; [tidy] then drops
   them, so a scan costs at most twice the live nodes *)
type t = {
  u : universe;
  mutable len : int;
  mutable live : int;
  nodes : int array;
  first : int array;
  sizes : int array;
  words : int array;
}

(* the list of [nodes] (ascending), every row empty *)
let empty_rows u nodes =
  let len = Array.length nodes in
  let first = Array.make len 0 and w = ref 0 in
  for i = 0 to len - 1 do
    first.(i) <- !w;
    w := !w + nwords u nodes.(i)
  done;
  { u; len; live = 0; nodes; first; sizes = Array.make len 0; words = Array.make !w 0 }

(* index of [x] in [a.(0 .. n - 1)] (ascending), or -1 *)
let search (a : int array) n x =
  let lo = ref 0 and hi = ref n and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let y = a.(mid) in
    if y = x then begin
      found := mid;
      lo := !hi
    end
    else if y < x then lo := mid + 1
    else hi := mid
  done;
  !found

let of_candidates u =
  let nodes =
    Array.of_seq
      (Seq.filter
         (fun v -> Array.length u.rows.(v) > 0)
         (Seq.init (Array.length u.rows) Fun.id))
  in
  let h = empty_rows u nodes in
  Array.iteri
    (fun i v ->
      let k = Array.length u.rows.(v) in
      for w = 0 to nwords u v - 1 do
        let r = k - (w * bits) in
        h.words.(h.first.(i) + w) <- (if r >= bits then -1 else (1 lsl r) - 1)
      done;
      h.sizes.(i) <- k)
    nodes;
  h.live <- h.len;
  h

let of_pairs u pairs =
  let nodes = Array.of_list (List.sort_uniq Int.compare (List.map fst pairs)) in
  let h = empty_rows u nodes in
  List.iter
    (fun (v, x) ->
      let i = search nodes h.len v and row = u.rows.(v) in
      let p = search row (Array.length row) x in
      if p < 0 then invalid_arg "Matching_list.of_pairs: a pair outside the universe";
      let k = h.first.(i) + (p / bits) and b = 1 lsl (p mod bits) in
      if h.words.(k) land b = 0 then begin
        h.words.(k) <- h.words.(k) lor b;
        h.sizes.(i) <- h.sizes.(i) + 1
      end)
    pairs;
  h.live <- h.len;
  h

let copy h =
  let live = List.filter (fun i -> h.sizes.(i) > 0) (List.init h.len Fun.id) in
  let c = empty_rows h.u (Array.of_list (List.map (fun i -> h.nodes.(i)) live)) in
  List.iteri
    (fun i' i ->
      Array.blit h.words h.first.(i) c.words c.first.(i') (nwords h.u h.nodes.(i));
      c.sizes.(i') <- h.sizes.(i))
    live;
  c.live <- c.len;
  c

let is_empty h = h.live = 0
let size h = h.live

let fold f h acc =
  let acc = ref acc in
  for i = 0 to h.len - 1 do
    let v = h.nodes.(i) in
    for w = 0 to nwords h.u v - 1 do
      let x = ref h.words.(h.first.(i) + w) and p = ref (w * bits) in
      while !x <> 0 do
        if !x land 1 <> 0 then acc := f v h.u.rows.(v).(!p) !acc;
        x := !x lsr 1;
        incr p
      done
    done
  done;
  !acc

(* [v]'s position, live or dead, or -1 *)
let find h v = search h.nodes h.len v

(* drops the dead positions once they outnumber the live ones *)
let tidy h =
  if h.len - h.live > h.live then begin
    let k = ref 0 in
    for i = 0 to h.len - 1 do
      if h.sizes.(i) > 0 then begin
        h.nodes.(!k) <- h.nodes.(i);
        h.first.(!k) <- h.first.(i);
        h.sizes.(!k) <- h.sizes.(i);
        incr k
      end
    done;
    h.len <- !k
  end

(* row [i] loses [n] set bits *)
let shrink h i n =
  if n > 0 then begin
    h.sizes.(i) <- h.sizes.(i) - n;
    if h.sizes.(i) = 0 then h.live <- h.live - 1
  end

(* clears row [i]'s bit at position [p]; whether it was set *)
let clear h i p =
  let k = h.first.(i) + (p / bits) and b = 1 lsl (p mod bits) in
  h.words.(k) land b <> 0
  && begin
       h.words.(k) <- h.words.(k) lxor b;
       shrink h i 1;
       true
     end

let remove_pairs h pairs =
  List.iter
    (fun (v, x) ->
      match find h v with
      | -1 -> ()
      | i ->
          let row = h.u.rows.(v) in
          let p = search row (Array.length row) x in
          if p >= 0 then ignore (clear h i p))
    pairs;
  tidy h

(* the step moves [bad], bits of word [w] of [v]'s row, to its H⁻ *)
let move u v w bad =
  if not u.marked.(v) then begin
    u.marked.(v) <- true;
    u.touched.(u.ntouched) <- v;
    u.ntouched <- u.ntouched + 1
  end;
  let k = u.woff.(v) + w in
  u.mv.(k) <- u.mv.(k) lor bad

(* greedyMatch line 4 on row [i], node [v']'s: moves to H⁻ the
   candidates with no path to [x] ([out]: [v'] is a parent of the taken
   node) or from it, in one pass over the row's set bits *)
let prune h i v' x out =
  let u = h.u in
  let row = u.rows.(v') and base = h.first.(i) and gone = ref 0 in
  for w = 0 to nwords u v' - 1 do
    let y = ref h.words.(base + w) and p = ref (w * bits) and bad = ref 0 in
    while !y <> 0 do
      if !y land 1 <> 0 && not (if out then BM.get u.tc2 row.(!p) x else BM.get u.tc2 x row.(!p))
      then bad := !bad lor (1 lsl (!p - (w * bits)));
      y := !y lsr 1;
      incr p
    done;
    if !bad <> 0 then begin
      h.words.(base + w) <- h.words.(base + w) lxor !bad;
      gone := !gone + Bitset.popcount !bad;
      move u v' w !bad
    end
  done;
  shrink h i !gone

(* prunes each live node of [nbrs], ascending as [h]'s nodes are, so one
   search window shrinks across them *)
let trim h nbrs x out =
  let lo = ref 0 and k = ref 0 in
  while !k < Array.length nbrs && !lo < h.len do
    let v' = nbrs.(!k) and hi = ref h.len in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if h.nodes.(mid) < v' then lo := mid + 1 else hi := mid
    done;
    if !lo < h.len && h.nodes.(!lo) = v' && h.sizes.(!lo) > 0 then prune h !lo v' x out;
    incr k
  done

(* row [i]'s set position of the largest similarity, or under [`First]
   its first; ties go to the first *)
let choose h i pick =
  let v = h.nodes.(i) in
  let best = ref (-1) and best_sim = ref neg_infinity in
  for w = 0 to nwords h.u v - 1 do
    let x = ref h.words.(h.first.(i) + w) and p = ref (w * bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then begin
        let s =
          match pick with `First -> 0. | `Best_sim -> Phom_sim.Simmat.get h.u.mat v h.u.rows.(v).(!p)
        in
        if s > !best_sim then begin
          best := !p;
          best_sim := s
        end
      end;
      x := !x lsr 1;
      incr p
    done
  done;
  !best

let take h pick =
  if h.live = 0 then invalid_arg "Matching_list.take: empty list";
  let u = h.u and i = ref 0 in
  for k = 1 to h.len - 1 do
    if h.sizes.(k) > h.sizes.(!i) then i := k
  done;
  let i = !i in
  let v = h.nodes.(i) in
  let j = choose h i pick in
  (* line 3: v leaves with j; its other candidates go to H⁻ *)
  for w = 0 to nwords u v - 1 do
    let k = h.first.(i) + w in
    let rest = if w = j / bits then h.words.(k) lxor (1 lsl (j mod bits)) else h.words.(k) in
    if rest <> 0 then move u v w rest;
    h.words.(k) <- 0
  done;
  h.sizes.(i) <- 0;
  h.live <- h.live - 1;
  (* line 4: a parent keeps the candidates that reach u, a child the ones
     u reaches *)
  let x = u.rows.(v).(j) in
  trim h (D.pred u.g1 v) x true;
  trim h (D.succ u.g1 v) x false;
  (v, x)

let prune_target h x =
  for i = 0 to h.len - 1 do
    if h.sizes.(i) > 0 then begin
      let v = h.nodes.(i) in
      let row = h.u.rows.(v) in
      let n = Array.length row in
      if row.(0) <= x && x <= row.(n - 1) then
        let p = search row n x in
        if p >= 0 && clear h i p then move h.u v (p / bits) (1 lsl (p mod bits))
    end
  done

let finish h =
  tidy h;
  let u = h.u in
  let n = u.ntouched in
  let nodes = Array.sub u.touched 0 n in
  (* a few nodes a step: an insertion sort *)
  for i = 1 to n - 1 do
    let v = nodes.(i) and k = ref (i - 1) in
    while !k >= 0 && nodes.(!k) > v do
      nodes.(!k + 1) <- nodes.(!k);
      decr k
    done;
    nodes.(!k + 1) <- v
  done;
  let m = empty_rows u nodes in
  for i = 0 to n - 1 do
    let v = nodes.(i) in
    for w = 0 to nwords u v - 1 do
      let k = u.woff.(v) + w in
      m.words.(m.first.(i) + w) <- u.mv.(k);
      m.sizes.(i) <- m.sizes.(i) + Bitset.popcount u.mv.(k);
      u.mv.(k) <- 0
    done;
    u.marked.(v) <- false
  done;
  m.live <- n;
  u.ntouched <- 0;
  m
