from .cli import main  # pragma: no cover - this module runs only as `python -m abl_engine`

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
