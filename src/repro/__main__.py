"""``python -m repro {dds,rcs}`` — the case-study command line (:mod:`repro.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
