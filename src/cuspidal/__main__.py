"""Run the cuspidal command as `python -m cuspidal`."""
from .cli import main
raise SystemExit(main())
