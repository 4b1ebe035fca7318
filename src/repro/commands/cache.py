"""``repro cache``: inspect and bound the persistent result cache.

``stats``, ``prune`` (``--max-bytes`` / ``--max-entries``, evicting oldest
first) and ``clear``.
"""

import argparse
import sys

from repro.analysis.result_cache import ResultCache


def run(args: argparse.Namespace) -> int:
    cache = ResultCache(args.inspect_cache_dir)
    if args.cache_op == "stats":
        stats = cache.stats()
        print(f"cache directory : {stats.directory}")
        print(f"entries         : {stats.entries}")
        print(f"total bytes     : {stats.total_bytes}")
        if args.verbose:
            for entry in cache.entries():
                print(f"  {entry.key[:16]}  {entry.size_bytes:>10}  {entry.mtime:.0f}")
    elif args.cache_op == "prune":
        if args.max_bytes is None and args.max_entries is None:
            print(
                "error: prune needs --max-bytes and/or --max-entries",
                file=sys.stderr,
            )
            return 2
        removed = cache.prune(max_bytes=args.max_bytes, max_entries=args.max_entries)
        stats = cache.stats()
        print(
            f"pruned {removed} entr{'y' if removed == 1 else 'ies'}; "
            f"{stats.entries} left ({stats.total_bytes} bytes)"
        )
    elif args.cache_op == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0
