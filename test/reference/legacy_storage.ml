module Storage = Pj_index.Storage
module Corpus = Pj_index.Corpus

let write ~version corpus counts path =
  if version < 1 || version > 3 then
    invalid_arg "Legacy_storage: versions 1 to 3 only";
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf "PJIX";
  Storage.write_varint buf version;
  let payload_start = Buffer.length buf in
  let vocab = Corpus.vocab corpus in
  let vocab_size = Pj_text.Vocab.size vocab in
  Storage.write_varint buf vocab_size;
  for id = 0 to vocab_size - 1 do
    Storage.write_string buf (Pj_text.Vocab.word vocab id)
  done;
  Storage.write_varint buf (Corpus.size corpus);
  Corpus.iter
    (fun d ->
      Storage.write_varint buf (Pj_text.Document.length d);
      Array.iter (Storage.write_varint buf) d.Pj_text.Document.tokens)
    corpus;
  if version >= 3 then begin
    Storage.write_varint buf (Array.length counts);
    Array.iter (Storage.write_varint buf) counts
  end;
  if version >= 2 then begin
    let contents = Buffer.contents buf in
    let crc =
      Storage.crc32 ~pos:payload_start
        ~len:(String.length contents - payload_start)
        contents
    in
    let footer = Bytes.create 4 in
    Bytes.set_int32_le footer 0 crc;
    Buffer.add_bytes buf footer
  end;
  Storage.write_file_atomic ~fp_write:"storage.save.write"
    ~fp_rename:"storage.save.rename" path buf

let save_corpus ?(version = 3) corpus path =
  write ~version corpus [| Corpus.size corpus |] path

let save idx path = save_corpus (Pj_index.Inverted_index.corpus idx) path

let save_sharded sharded path =
  write ~version:3
    (Pj_index.Sharded_index.corpus sharded)
    (Pj_index.Sharded_index.counts sharded)
    path
