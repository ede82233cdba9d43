#!/usr/bin/env python3
"""Generate a synthetic planted-influence corpus on disk.

Writes embeddings.bin, tokens.tsv and reference.tsv into --out, plus a
components.csv mapping each instance to its mixture component (handy for
inspecting selection composition).
"""

import argparse
import os

from influence_select import synthetic
from influence_select.corpus import write_embeddings, write_tokens


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data", help="output directory")
    ap.add_argument("--instances", type=int, default=10000)
    ap.add_argument("--components", type=int, default=64)
    ap.add_argument("--aligned", type=int, default=8)
    ap.add_argument("--vocab", type=int, default=64)
    ap.add_argument("--seq-len", type=int, default=24)
    ap.add_argument("--embed-dim", type=int, default=16)
    ap.add_argument("--reference", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = synthetic.SyntheticSpec(
        n_instances=args.instances,
        embed_dim=args.embed_dim,
        n_components=args.components,
        n_aligned=args.aligned,
        vocab_size=args.vocab,
        seq_len=args.seq_len,
        n_reference=args.reference,
        seed=args.seed,
    )
    data = synthetic.generate(spec)
    os.makedirs(args.out, exist_ok=True)
    write_embeddings(os.path.join(args.out, "embeddings.bin"), data.embeddings)
    write_tokens(os.path.join(args.out, "tokens.tsv"), data.instances)
    write_tokens(os.path.join(args.out, "reference.tsv"), data.reference)
    with open(os.path.join(args.out, "components.csv"), "w", encoding="utf-8") as fh:
        fh.write("instance_id,component,aligned\n")
        for i, c in enumerate(data.component):
            fh.write(f"{i},{int(c)},{int(c < args.aligned)}\n")
    print(f"wrote {args.instances} instances ({args.aligned}/{args.components} aligned "
          f"components) to {args.out}/")


if __name__ == "__main__":
    main()
