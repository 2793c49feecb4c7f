#include "base/argparse.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/decimal.hh"
#include "base/logging.hh"

namespace cbws
{

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &default_value)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.value = default_value;
    options_.push_back(std::move(opt));
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.isFlag = true;
    options_.push_back(std::move(opt));
}

void
ArgParser::addRepeatable(const std::string &name,
                         const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.repeatable = true;
    options_.push_back(std::move(opt));
}

void
ArgParser::addPositional(const std::string &name,
                         const std::string &help)
{
    positionals_.emplace_back(name, help);
}

ArgParser::Option *
ArgParser::find(const std::string &name)
{
    for (auto &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

const ArgParser::Option *
ArgParser::find(const std::string &name) const
{
    for (const auto &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

bool
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            std::fputs(usage().c_str(), stdout);
            return true;
        }
        if (arg.rfind("--", 0) != 0) {
            positionalValues_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        Option *opt = find(arg);
        if (!opt) {
            std::fprintf(stderr, "%s: unknown option --%s\n",
                         program_.c_str(), arg.c_str());
            return false;
        }
        if (opt->isFlag) {
            if (has_value) {
                std::fprintf(stderr,
                             "%s: flag --%s takes no value\n",
                             program_.c_str(), arg.c_str());
                return false;
            }
            opt->set = true;
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: option --%s needs a value\n",
                             program_.c_str(), arg.c_str());
                return false;
            }
            value = argv[++i];
        }
        if (opt->repeatable)
            opt->values.push_back(value);
        opt->value = std::move(value);
        opt->set = true;
    }
    return true;
}

std::string
ArgParser::get(const std::string &name) const
{
    const Option *opt = find(name);
    return opt ? opt->value : std::string();
}

std::uint64_t
ArgParser::getUint(const std::string &name,
                   std::uint64_t fallback) const
{
    const Option *opt = find(name);
    if (!opt)
        return fallback;
    const std::string &text = opt->value;
    std::uint64_t v = 0;
    if (parseDecimal(text, v))
        return v;
    // A bad declared default falls back; a bad user value is an error.
    fatal_if(opt->set, "%s: --%s expects an unsigned decimal integer "
             "up to 2^64-1, got '%s'",
             program_.c_str(), name.c_str(), text.c_str());
    return fallback;
}

std::vector<std::string>
ArgParser::getAll(const std::string &name) const
{
    const Option *opt = find(name);
    return opt ? opt->values : std::vector<std::string>();
}

bool
ArgParser::getFlag(const std::string &name) const
{
    const Option *opt = find(name);
    return opt && opt->set;
}

bool
ArgParser::provided(const std::string &name) const
{
    const Option *opt = find(name);
    return opt && opt->set;
}

std::string
ArgParser::usage() const
{
    std::ostringstream out;
    out << program_ << " - " << description_ << "\n\nusage: "
        << program_ << " [options]";
    for (const auto &[name, help] : positionals_)
        out << " <" << name << ">";
    out << "\n\noptions:\n";
    for (const auto &opt : options_) {
        out << "  --" << opt.name;
        if (!opt.isFlag)
            out << " <value>";
        out << "\n      " << opt.help;
        if (!opt.isFlag && !opt.value.empty())
            out << " (default: " << opt.value << ")";
        if (opt.repeatable)
            out << " (repeatable)";
        out << "\n";
    }
    for (const auto &[name, help] : positionals_)
        out << "  <" << name << ">\n      " << help << "\n";
    return out.str();
}

} // namespace cbws
