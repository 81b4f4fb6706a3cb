let bits_per_word = 63

type t = { nrows : int; ncols : int; words_per_row : int; data : int array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitmatrix.create";
  let words_per_row = max 1 ((cols + bits_per_word - 1) / bits_per_word) in
  { nrows = rows; ncols = cols; words_per_row; data = Array.make (max 1 (rows * words_per_row)) 0 }

let rows m = m.nrows
let cols m = m.ncols

let byte_size m =
  (* header + the packed words; labels the cost a cached closure carries in
     a byte-accounted artifact cache *)
  (4 + Array.length m.data) * (Sys.word_size / 8)

let check m r c =
  if r < 0 || r >= m.nrows || c < 0 || c >= m.ncols then
    invalid_arg "Bitmatrix: index out of bounds"

let get m r c =
  check m r c;
  let w = (r * m.words_per_row) + (c / bits_per_word) in
  m.data.(w) land (1 lsl (c mod bits_per_word)) <> 0

let set m r c b =
  check m r c;
  let w = (r * m.words_per_row) + (c / bits_per_word) in
  let bit = 1 lsl (c mod bits_per_word) in
  if b then m.data.(w) <- m.data.(w) lor bit
  else m.data.(w) <- m.data.(w) land lnot bit

let or_row_into m ~dst ~src =
  if dst < 0 || dst >= m.nrows || src < 0 || src >= m.nrows then
    invalid_arg "Bitmatrix.or_row_into";
  let d = dst * m.words_per_row and s = src * m.words_per_row in
  for w = 0 to m.words_per_row - 1 do
    m.data.(d + w) <- m.data.(d + w) lor m.data.(s + w)
  done

let or_row ~from ~src ~into ~dst =
  if from.ncols <> into.ncols then invalid_arg "Bitmatrix.or_row: column mismatch";
  if src < 0 || src >= from.nrows || dst < 0 || dst >= into.nrows then
    invalid_arg "Bitmatrix.or_row";
  let s = src * from.words_per_row and d = dst * into.words_per_row in
  for w = 0 to from.words_per_row - 1 do
    into.data.(d + w) <- into.data.(d + w) lor from.data.(s + w)
  done

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let row_count m r =
  if r < 0 || r >= m.nrows then invalid_arg "Bitmatrix.row_count";
  let base = r * m.words_per_row in
  let acc = ref 0 in
  for w = 0 to m.words_per_row - 1 do
    acc := !acc + popcount m.data.(base + w)
  done;
  !acc

let count m =
  let acc = ref 0 in
  for r = 0 to m.nrows - 1 do
    acc := !acc + row_count m r
  done;
  !acc

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols && a.data = b.data

let iter_row f m r =
  if r < 0 || r >= m.nrows then invalid_arg "Bitmatrix.iter_row";
  let base = r * m.words_per_row in
  for w = 0 to m.words_per_row - 1 do
    let word = m.data.(base + w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        let c = (w * bits_per_word) + b in
        if c < m.ncols && word land (1 lsl b) <> 0 then f c
      done
  done

let transpose m =
  let t = create ~rows:m.ncols ~cols:m.nrows in
  for r = 0 to m.nrows - 1 do
    iter_row (fun c -> set t c r true) m r
  done;
  t

let pp ppf m =
  for r = 0 to m.nrows - 1 do
    for c = 0 to m.ncols - 1 do
      Format.pp_print_char ppf (if get m r c then '1' else '0')
    done;
    if r < m.nrows - 1 then Format.pp_print_newline ppf ()
  done
