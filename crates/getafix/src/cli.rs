//! The command-line contract every Getafix binary parses through. The
//! `getafix` tool declares one [`Spec`], a table of [`Flag`] rows, and
//! the benchmark binaries share another; [`Spec::parse`] checks a command
//! line against its table before the binary does any work.
//!
//! A token starting with `-` must be a flag of the command. A value flag
//! takes the next token unless that token is missing or starts with
//! `--`, so `--max-iter -5` reaches the number check. Any other token is
//! a positional, wherever it stands. An unknown flag (a single-dash
//! token included), a repeated flag, a value flag without its value, a
//! missing required flag or positional, a stray positional and a value
//! the row refuses are [`Usage`] errors.

use std::fmt::Debug;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A command-line contract: commands and one flag table.
pub struct Spec {
    /// The binary that runs the commands, `None` when each command is a
    /// binary of its own.
    pub program: Option<&'static str>,
    /// Each command as its synopsis starts: the name, then the
    /// placeholder of its one positional if it takes one.
    pub commands: &'static [&'static str],
    /// The flag table.
    pub flags: &'static [Flag],
}

/// One row of a flag table.
pub struct Flag {
    /// The flag, `--` included.
    pub name: &'static str,
    /// What the flag takes.
    pub value: Value,
    /// The commands that read the flag.
    pub commands: &'static [&'static str],
    /// The commands that cannot run without it.
    pub required_by: &'static [&'static str],
    /// Whether the flag configures or reports the fixed-point solver.
    pub solver: bool,
}

/// What a flag takes: nothing, or a value shown in the synopsis as its
/// placeholder.
pub enum Value {
    /// The flag is a switch.
    Switch,
    /// One of the listed words.
    OneOf(&'static str, &'static [&'static str]),
    /// A value the function accepts; its error says what is wrong.
    Takes(&'static str, fn(&str) -> Result<(), String>),
}

impl Flag {
    /// An optional flag that `commands` read and that is no solver flag.
    pub const fn new(name: &'static str, value: Value, commands: &'static [&'static str]) -> Flag {
        Flag { name, value, commands, required_by: &[], solver: false }
    }

    /// The same flag, required by `commands`.
    pub const fn required_by(self, commands: &'static [&'static str]) -> Flag {
        Flag { required_by: commands, ..self }
    }

    /// The same flag, marked as configuring or reporting the solver.
    pub const fn solver(self) -> Flag {
        Flag { solver: true, ..self }
    }
}

/// A command-line mistake. The binary prints it with its usage and
/// exits 2.
#[derive(Debug)]
pub struct Usage(pub String);

/// A command line that passed its [`Spec`].
pub struct Args {
    /// The command the line runs.
    pub command: &'static str,
    /// The command's one positional, for a command that takes one.
    pub operand: Option<String>,
    given: Vec<(&'static Flag, Option<String>)>,
    spec: &'static Spec,
}

impl Spec {
    /// Checks `tokens`, the words after the command, against `command`'s
    /// flags and positional, and every given value against its row.
    ///
    /// # Errors
    ///
    /// A [`Usage`] error naming the offending token and the command.
    pub fn parse(&'static self, command: &str, tokens: &[String]) -> Result<Args, Usage> {
        let (command, operand) = self
            .commands
            .iter()
            .map(|head| split(head))
            .find(|(name, _)| *name == command)
            .ok_or_else(|| Usage(format!("unknown command `{command}`")))?;
        let mut args = Args { command, operand: None, given: Vec::new(), spec: self };
        let mut positionals = Vec::new();
        let mut tokens = tokens.iter().peekable();
        while let Some(token) = tokens.next() {
            if !token.starts_with('-') {
                positionals.push(token.clone());
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == token && f.commands.contains(&command))
                .ok_or_else(|| Usage(format!("unknown flag `{token}` for `{command}`")))?;
            if args.has(token) {
                return Err(Usage(format!("repeated flag `{token}` for `{command}`")));
            }
            let value = match flag.value {
                Value::Switch => None,
                _ => Some(tokens.next_if(|v| !v.starts_with("--")).ok_or_else(|| {
                    Usage(format!("missing value for flag `{token}` of `{command}`"))
                })?),
            };
            match (&flag.value, value) {
                (Value::OneOf(_, words), Some(v)) if !words.contains(&v.as_str()) => {
                    let words = words.join(" ");
                    return Err(Usage(format!("unknown {token} `{v}` (accepted: {words})")));
                }
                (Value::Takes(_, check), Some(v)) => {
                    check(v).map_err(|e| Usage(format!("{token} `{v}`: {e}")))?
                }
                _ => {}
            }
            args.given.push((flag, value.cloned()));
        }
        if let Some(flag) =
            self.flags.iter().find(|f| f.required_by.contains(&command) && !args.has(f.name))
        {
            return Err(Usage(format!("missing flag `{}` for `{command}`", flag.name)));
        }
        let mut positionals = positionals.into_iter();
        if let Some(placeholder) = operand {
            let missing = || Usage(format!("missing argument `{placeholder}` for `{command}`"));
            args.operand = Some(positionals.next().ok_or_else(missing)?);
        }
        match positionals.next() {
            Some(stray) => Err(Usage(format!("stray argument `{stray}` for `{command}`"))),
            None => Ok(args),
        }
    }

    /// Parses this process's arguments for `command`, a binary of its
    /// own, or prints the mistake and the command's synopsis and exits 2.
    pub fn parse_env(&'static self, command: &'static str) -> Args {
        let tokens: Vec<String> = std::env::args().skip(1).collect();
        self.parse(command, &tokens).unwrap_or_else(|e| self.exit_usage(command, e))
    }

    /// Prints `command`'s usage error and synopsis, then exits 2.
    pub fn exit_usage(&self, command: &'static str, error: Usage) -> ! {
        eprintln!("{command}: {}\n\nusage:\n{}", error.0, self.synopsis(Some(command)));
        std::process::exit(2)
    }

    /// The synopsis lines of command `only`, or of every command, wrapped
    /// at 90 columns: each required flag bare, each optional one
    /// bracketed.
    pub fn synopsis(&self, only: Option<&str>) -> String {
        let mut out = String::new();
        for head in self.commands {
            let command = split(head).0;
            if only.is_some_and(|c| c != command) {
                continue;
            }
            let mut line = self.program.map_or(format!("  {head}"), |p| format!("  {p} {head}"));
            for f in self.flags.iter().filter(|f| f.commands.contains(&command)) {
                let mut word = match f.value {
                    Value::Switch => f.name.to_string(),
                    Value::OneOf(placeholder, _) | Value::Takes(placeholder, _) => {
                        format!("{} {placeholder}", f.name)
                    }
                };
                if !f.required_by.contains(&command) {
                    word = format!("[{word}]");
                }
                if line.len() + 1 + word.len() > 90 {
                    out += &line;
                    line = "\n         ".into();
                }
                line += " ";
                line += &word;
            }
            out += &line;
            out.push('\n');
        }
        out
    }
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == flag)
    }

    /// The value given to `flag`.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f.name == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The value given to `flag`, as the type its row's check admits.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Debug,
    {
        self.text(flag).map(|v| v.parse().expect("the parse checked the value against its row"))
    }
}

/// A command's name and the placeholder of its positional, from its
/// [`Spec::commands`] entry.
fn split(head: &'static str) -> (&'static str, Option<&'static str>) {
    head.split_once(' ').map_or((head, None), |(name, operand)| (name, Some(operand)))
}

/// A value check: any text.
pub fn text(_: &str) -> Result<(), String> {
    Ok(())
}

/// A value check: a whole number.
pub fn whole(v: &str) -> Result<(), String> {
    v.parse::<usize>().map(drop).map_err(|e| e.to_string())
}

/// A value check: a whole number of at least 1.
pub fn count(v: &str) -> Result<(), String> {
    match v.parse::<usize>() {
        Ok(0) => Err("must be at least 1".into()),
        n => n.map(drop).map_err(|e| e.to_string()),
    }
}

/// A value check: a positive, finite number.
pub fn positive(v: &str) -> Result<(), String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(()),
        Ok(_) => Err("must be a positive, finite number".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The wall-clock deadline of a command that reads `--timeout SECS`: the
/// flag's value, else the `GETAFIX_TIMEOUT` environment variable.
///
/// # Errors
///
/// A [`Usage`] error naming the flag or the variable, whichever gave a
/// value no deadline can be made of.
pub fn timeout(args: &Args) -> Result<Option<Duration>, Usage> {
    let reads =
        args.spec.flags.iter().any(|f| f.name == "--timeout" && f.commands.contains(&args.command));
    let env =
        || std::env::var("GETAFIX_TIMEOUT").ok().map(|v| ("GETAFIX_TIMEOUT", v.trim().into()));
    let given = args.text("--timeout").map(|v| ("--timeout", v.to_string()));
    let Some((source, secs)) = given.or_else(|| reads.then(env).flatten()) else { return Ok(None) };
    let bad = |e: String| Usage(format!("{source} `{secs}`: {e}"));
    positive(&secs).map_err(bad)?;
    let secs_f64 = secs.parse().expect("`positive` parsed it");
    let deadline = Duration::try_from_secs_f64(secs_f64).map_err(|e| bad(e.to_string()))?;
    let beyond = || bad("the deadline lies beyond the clock's range".into());
    Instant::now().checked_add(deadline).map(|_| Some(deadline)).ok_or_else(beyond)
}
